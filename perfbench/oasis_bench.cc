// oasis_bench: the repo benchmark's program (see perfbench/README.md).
//
//   oasis_bench setup --workload W --seed N --dir D --oasisd BIN --trace T
//   oasis_bench serve --workload W --seed N --dir D --oasisd BIN --trace T
//                     --seconds S --digests DIR
//   (either accepts --smoke for the small-size inputs)
//
// `setup` makes the workload's inputs from the seed, performs the
// program's set-up calls several times (Create / Append / Open, and the
// daemon's start up to its first ping) and leaves the last index in D
// (for fig3-mmap and fig7-pool also their queries, in D.queries).
// `serve` runs the workload's closed loop against D for at least S seconds
// in whole rounds, then makes the database again, checks every result
// against Smith-Waterman references computed here, and reports. Both print
// one JSON object as their last stdout line; perfbench/run.py merges them.
//
// With --trace 1 every call into the library is wrapped in a span (name,
// start, end, parent, request id); spans stay in memory, are written to
// D.spans.tsv when the run ends, and are reduced to the per-layer table.
// End-to-end metrics come only from --trace 0 runs.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/smith_waterman.h"
#include "api/engine.h"
#include "core/oasis.h"
#include "score/substitution_matrix.h"
#include "seq/alphabet.h"
#include "seq/database.h"
#include "server/client.h"
#include "suffix/tree_cursor.h"
#include "util/random.h"
#include "workload/workload.h"

namespace fs = std::filesystem;

namespace oasis {
namespace perfbench {
namespace {

constexpr double kEValue = 20000.0;  // paper Figure 3 / 9
constexpr uint64_t kTopK = 40;       // the Figure 9 scientist's first 40

// ---------------------------------------------------------------------------
// Workloads and their sizes.

enum class Workload { kFig3Mmap, kFig7Pool, kFig9Daemon };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "fig3-mmap") return Workload::kFig3Mmap;
  if (name == "fig7-pool") return Workload::kFig7Pool;
  if (name == "fig9-daemon") return Workload::kFig9Daemon;
  return std::nullopt;
}

/// Input sizes. `full` is the measured configuration; `smoke` runs every
/// code path and every check on inputs small enough for a test.
struct Scale {
  uint64_t db_residues;
  uint32_t round_queries;      ///< fig3/fig7: distinct queries per round
  uint32_t daemon_distinct;    ///< fig9: distinct requests per client round
  uint32_t rounds_max;         ///< rounds of fresh queries generated per run
  uint32_t setup_repeats;      ///< set-ups per run (median reported)
  uint64_t pool_bytes;         ///< fig7's pool, well under the index
  uint64_t volume_bytes;       ///< fig9's Create volume size
  uint32_t appends;            ///< fig9's Append batches after Create
  uint64_t append_residues;    ///< residues per Append batch
  uint32_t min_samples;        ///< requests for query_p90_ms: 10 beyond it
  uint32_t replay_calls;       ///< per suffix/storage replay kind
  uint32_t overhead_requests;  ///< fig9 traced: sequential fresh requests
};

constexpr Scale kFullScale{1000000, 32, 6, 64, 3, 2ull << 20, 200000,
                           2, 60000, 100, 20000, 24};
constexpr Scale kSmokeScale{40000, 6, 3, 16, 1, 256ull << 10, 12000,
                            2, 3000, 1, 2000, 6};

/// Mixes the run seed with a stream tag, so every input stream (database,
/// queries, per-client rounds) is a fixed function of --seed.
uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Small utilities.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

/// Geometric mean. First-hit times are bimodal (the best alignment is
/// either proven within a few DP columns or only after a long search), and
/// the median sits in the gap between the modes, where a small change in
/// the mix moves it far; the geometric mean weighs both modes smoothly.
double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set (VmHWM) of process `pid`, in MiB; 0 if unreadable.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) {
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    Add(s.size());
  }
};

/// Collects failures of the correctness checks. A run with any failure
/// prints "correct": false. Thread-safe (the reference phase is parallel).
struct Checks {
  std::mutex mu;
  int failures = 0;
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (++failures <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// Runs fn(0..n-1) on a few threads. Only the untimed reference phase uses
/// it, so its parallelism never overlaps a measurement.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  constexpr unsigned kThreads = 4;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "oasis_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(util::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the outside, around calls into the library.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    ///< index of the enclosing span, -1 for a root
  uint32_t request;  ///< shared by every span of one request
  uint64_t count;    ///< calls covered (replay batches cover many)
};

/// One per thread; merged when the run ends. Disabled tracers record
/// nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }
  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1,
                uint64_t count = 1) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request, count});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[id].end_ns = NowNs();
  }
  /// Sets the number of calls a replay span covered, once known.
  void SetCount(int32_t id, uint64_t count) {
    if (id >= 0) spans_[id].count = count;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t request,
             int32_t parent = -1, uint64_t count = 1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent, count)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Durations (ns) of every span named `name`.
std::vector<double> SpanNs(const std::vector<const Tracer*>& tracers,
                           std::string_view name) {
  std::vector<double> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

/// ns per call over every span named `name` (replay batches).
double NsPerCall(const std::vector<const Tracer*>& tracers,
                 std::string_view name) {
  double ns = 0, calls = 0;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (name == s.name) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
        calls += static_cast<double>(s.count);
      }
    }
  }
  return calls > 0 ? ns / calls : 0.0;
}

void WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path) {
  std::ofstream out(path);
  out << "thread\tid\tname\tstart_ns\tend_ns\tparent\trequest\tcount\n";
  for (size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.parent << '\t' << s.request << '\t'
          << s.count << '\n';
    }
  }
}

// ---------------------------------------------------------------------------
// Inputs: everything comes from the src/workload generators and --seed.

using Query = std::vector<seq::Symbol>;

/// `count` motif queries whose lengths follow the generator's length
/// distribution at fixed quantiles: the generator draws `count * 8`
/// candidates, the picks sit at the (i + 0.5) / count length quantiles,
/// and the picks are shuffled. Every seed then gets a round of the same
/// make-up, so run-to-run spread reflects the program, not the draw.
///
/// With `used`, no pick repeats a query in it (nor another pick): a
/// candidate already used gives way to the next one in length order, and
/// every pick is added to it. Short motifs drawn independently do repeat
/// now and then, and a request that is meant to be fresh must not find
/// its answer in the daemon's result cache. `*replaced` counts the
/// candidates passed over.
std::vector<Query> StratifiedQueries(const seq::SequenceDatabase& db,
                                     const score::SubstitutionMatrix& matrix,
                                     uint64_t seed, uint32_t count,
                                     std::set<Query>* used = nullptr,
                                     uint64_t* replaced = nullptr) {
  workload::MotifQueryOptions options;
  options.num_queries = count * 8;
  options.seed = seed;
  auto generated =
      Unwrap(workload::GenerateMotifQueries(db, matrix, options), "queries");
  std::vector<size_t> order(generated.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return generated[a].symbols.size() < generated[b].symbols.size();
  });
  std::vector<Query> picks;
  for (uint32_t i = 0; i < count; ++i) {
    size_t at = static_cast<size_t>((i + 0.5) * order.size() / count);
    if (used != nullptr) {
      for (size_t tries = 0; used->count(generated[order[at]].symbols) > 0;
           ++tries) {
        if (tries == order.size()) Die("no fresh motif query left");
        at = (at + 1) % order.size();
        if (replaced != nullptr) ++*replaced;
      }
      used->insert(generated[order[at]].symbols);
    }
    picks.push_back(generated[order[at]].symbols);
  }
  util::Random rng(Mix(seed, 7));
  for (size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.Uniform(i)]);
  }
  return picks;
}

struct Inputs {
  const score::SubstitutionMatrix* matrix = &score::SubstitutionMatrix::Pam30();
  /// The whole database in global id order (Create's part, then every
  /// Append batch) — the Smith-Waterman reference scans this.
  std::optional<seq::SequenceDatabase> db;
  size_t create_count = 0;  ///< sequences given to Create
  std::vector<std::vector<seq::Sequence>> append_batches;
  std::unordered_map<std::string, uint32_t> id_of;  ///< name -> global id
};

Inputs MakeInputs(Workload workload, uint64_t seed, const Scale& scale) {
  Inputs in;
  workload::ProteinDatabaseOptions db_options;
  db_options.target_residues = scale.db_residues;
  db_options.seed = Mix(seed, 1);
  in.db = Unwrap(workload::GenerateProteinDatabase(db_options), "database");
  const auto& seqs = in.db->sequences();
  for (uint32_t i = 0; i < seqs.size(); ++i) in.id_of[seqs[i].id()] = i;
  in.create_count = seqs.size();
  if (workload == Workload::kFig9Daemon) {
    // The tail of the database arrives through Append, one batch of about
    // append_residues each, after Create has built the rest.
    size_t end = seqs.size();
    std::vector<std::vector<seq::Sequence>> tail;
    for (uint32_t b = 0; b < scale.appends; ++b) {
      size_t begin = end;
      uint64_t residues = 0;
      while (begin > 1 && residues < scale.append_residues) {
        residues += seqs[--begin].size();
      }
      tail.emplace_back(seqs.begin() + begin, seqs.begin() + end);
      end = begin;
    }
    in.create_count = end;
    in.append_batches.assign(tail.rbegin(), tail.rend());
  }
  return in;
}

seq::SequenceDatabase CreatePart(const Inputs& in) {
  std::vector<seq::Sequence> part(in.db->sequences().begin(),
                                  in.db->sequences().begin() + in.create_count);
  return Unwrap(seq::SequenceDatabase::Build(in.db->alphabet(), std::move(part)),
                "database part");
}

api::EngineOptions WorkloadOptions(Workload workload, const Scale& scale) {
  api::EngineOptions options;  // kAuto: mmap at these sizes
  if (workload == Workload::kFig7Pool) {
    options.io_mode = api::IoMode::kPooled;
    options.pool_bytes = scale.pool_bytes;
  }
  if (workload == Workload::kFig9Daemon) {
    options.volume_size_bytes = scale.volume_bytes;
    // oasisd's own default: pooled, with its default pool.
    options.io_mode = api::IoMode::kPooled;
  }
  return options;
}

api::SearchRequest MakeRequest(const Query& query, bool top_k) {
  api::SearchRequest request(query);
  request.EValue(kEValue);
  if (top_k) request.TopK(kTopK);
  return request;
}

/// fig3-mmap's and fig7-pool's queries. The set-up process makes them and
/// writes them beside the index, so the serving process reads them without
/// generating the database first: its peak RSS at the end of the timed
/// phase is then the engine's, not that of the input generators.
struct LocalQueries {
  std::vector<Query> warm;                ///< warm-up, before timing
  std::vector<std::vector<Query>> rounds;  ///< a fresh stratified draw each
};

LocalQueries MakeLocalQueries(const Inputs& in, uint64_t seed,
                              const Scale& scale) {
  LocalQueries queries;
  queries.warm = StratifiedQueries(*in.db, *in.matrix, Mix(seed, 99), 8);
  for (uint32_t r = 0; r < scale.rounds_max; ++r) {
    queries.rounds.push_back(StratifiedQueries(
        *in.db, *in.matrix, Mix(seed, 2000 + r), scale.round_queries));
  }
  return queries;
}

/// One query a line: "warm RESIDUES" or "ROUND RESIDUES".
void WriteLocalQueries(const LocalQueries& queries, const std::string& path) {
  const seq::Alphabet& alphabet = seq::Alphabet::Protein();
  std::ofstream out(path);
  for (const Query& query : queries.warm) {
    out << "warm " << alphabet.Decode(query) << '\n';
  }
  for (size_t r = 0; r < queries.rounds.size(); ++r) {
    for (const Query& query : queries.rounds[r]) {
      out << r << ' ' << alphabet.Decode(query) << '\n';
    }
  }
  if (!out) Die("cannot write " + path);
}

LocalQueries ReadLocalQueries(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path + " (run setup first)");
  LocalQueries queries;
  std::string group, residues;
  while (in >> group >> residues) {
    Query query = Unwrap(seq::Alphabet::Protein().Encode(residues), "query");
    if (group == "warm") {
      queries.warm.push_back(std::move(query));
      continue;
    }
    const size_t r = std::stoul(group);
    if (r >= queries.rounds.size()) queries.rounds.resize(r + 1);
    queries.rounds[r].push_back(std::move(query));
  }
  if (queries.warm.empty() || queries.rounds.empty()) Die("no queries in " + path);
  return queries;
}

// ---------------------------------------------------------------------------
// The daemon, as a child process of its own.

class Daemon {
 public:
  /// Starts `binary` on `index_dir` with an ephemeral port and returns once
  /// it answers a ping. stderr goes to `log_path`.
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       const std::string& index_dir,
                                       const std::string& log_path) {
    int out[2];
    if (::pipe(out) != 0) Die("pipe");
    const pid_t pid = ::fork();
    if (pid < 0) Die("fork");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      execl(binary.c_str(), binary.c_str(), "--index", index_dir.c_str(),
            "--port", "0", static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(out[1]);
    auto daemon = std::unique_ptr<Daemon>(new Daemon(pid));
    std::string line;
    char c;
    while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
    ::close(out[0]);
    const size_t colon = line.rfind(':');
    if (line.rfind("oasisd listening on ", 0) != 0 || colon == std::string::npos) {
      Die("oasisd did not start: '" + line + "'");
    }
    daemon->port_ = static_cast<uint16_t>(std::stoi(line.substr(colon + 1)));
    auto client = Unwrap(server::DaemonClient::Connect("127.0.0.1", daemon->port_),
                         "connect");
    if (!client.Ping().ok()) Die("oasisd did not answer a ping");
    return daemon;
  }

  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain) and wait for the process to end.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// JSON output.

class JsonOut {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (!metrics_.empty()) metrics_ += ", ";
    metrics_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                unit + "\"}";
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string metrics_;
};

// ---------------------------------------------------------------------------
// Set-up: the program's set-up calls, repeated; the last index stays.

struct Args {
  std::string command;
  Workload workload = Workload::kFig3Mmap;
  uint64_t seed = 1;
  std::string dir;
  std::string oasisd;
  std::string digests;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

int RunSetup(const Args& args, const Scale& scale) {
  Inputs in = MakeInputs(args.workload, args.seed, scale);
  const api::EngineOptions options = WorkloadOptions(args.workload, scale);
  Tracer tracer(args.trace);
  std::vector<double> setup_s, create_s, append_s, open_s;
  for (uint32_t r = 0; r < scale.setup_repeats; ++r) {
    fs::remove_all(args.dir);
    // Input preparation (copying the generated sequences) is not timed.
    seq::SequenceDatabase part = CreatePart(in);
    std::vector<std::vector<seq::Sequence>> batches = in.append_batches;
    const uint32_t rid = r + 1;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(&tracer, "api.create", rid);
      auto engine = Unwrap(
          api::Engine::CreateFromDatabase(std::move(part), args.dir, options),
          "Create");
      const int64_t t1 = NowNs();
      create_s.push_back((t1 - t0) * 1e-9);
      for (auto& batch : batches) {
        ScopedSpan append_span(&tracer, "api.append", rid);
        util::Status st = engine->AppendSequences(std::move(batch));
        if (!st.ok()) Die("Append: " + st.ToString());
      }
      append_s.push_back((NowNs() - t1) * 1e-9);
      engine->WaitForCompaction();
    }
    const int64_t t2 = NowNs();
    if (args.workload == Workload::kFig9Daemon) {
      ScopedSpan span(&tracer, "server.start", rid);
      auto daemon = Daemon::Start(args.oasisd, args.dir, args.dir + ".log");
      open_s.push_back((NowNs() - t2) * 1e-9);
      setup_s.push_back((NowNs() - t0) * 1e-9);
      daemon->Stop();
    } else {
      ScopedSpan span(&tracer, "api.open", rid);
      auto engine = Unwrap(api::Engine::Open(args.dir, options), "Open");
      open_s.push_back((NowNs() - t2) * 1e-9);
      setup_s.push_back((NowNs() - t0) * 1e-9);
    }
  }
  if (args.workload != Workload::kFig9Daemon) {
    WriteLocalQueries(MakeLocalQueries(in, args.seed, scale), args.dir + ".queries");
  }
  const double residues = static_cast<double>(in.db->num_residues());
  JsonOut out;
  out.Metric("setup_s", Median(setup_s), "s");
  out.Metric("index_bytes_per_residue", DirBytes(args.dir) / residues, "B");
  out.Metric("api.create_s", Median(create_s), "s");
  out.Metric("api.append_s", Median(append_s), "s");
  out.Metric("api.open_s", Median(open_s), "s");
  out.Print(true, scale.setup_repeats, 0);
  return 0;
}

// ---------------------------------------------------------------------------
// One local request, drained through Engine::Search.

/// What the checks need of one result stream, folded as the hits arrive
/// so the timed loop keeps no result lists (they would count in the
/// serving process's peak RSS).
struct Stream {
  uint64_t count = 0;
  uint64_t set_hash = 0;  ///< order-free sum over (sequence, score)
  uint64_t order_hash = Fnv().h;  ///< ordered (sequence, score, ends)
  bool non_increasing = true;
  score::ScoreT last = 0;
  /// Hits kept for re-scoring: the first three and every 25th.
  std::vector<std::pair<uint32_t, score::ScoreT>> sample;

  static uint64_t PairHash(uint32_t sequence_id, score::ScoreT score) {
    return Mix(sequence_id, static_cast<uint64_t>(score) + 0x5bd1e995);
  }
  void Add(const core::OasisResult& r) {
    if (count > 0 && r.score > last) non_increasing = false;
    if (count < 3 || count % 25 == 0) sample.emplace_back(r.sequence_id, r.score);
    last = r.score;
    ++count;
    set_hash += PairHash(r.sequence_id, r.score);
    Fnv f{order_hash};
    f.Add(r.sequence_id);
    f.Add(static_cast<uint64_t>(r.score));
    f.Add(r.query_end);
    f.Add(r.target_end);
    order_hash = f.h;
  }
  bool SameAs(const Stream& o) const {
    return count == o.count && order_hash == o.order_hash;
  }
};

struct LocalRun {
  util::Status status = util::Status::OK();
  double latency_ms = 0;
  double first_hit_ms = 0;
  Stream stream;
  core::OasisStats stats;
  core::OasisStats first_stats;  ///< after the first Next()
};

LocalRun RunLocal(const api::Engine& engine, const api::SearchRequest& request,
                  Tracer* tracer, uint32_t rid) {
  LocalRun run;
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "request", rid);
  if (tracer->on()) {
    ScopedSpan span(tracer, "score.min_score", rid, root.id());
    (void)engine.ResolveMinScore(request);
  }
  std::optional<api::ResultCursor> cursor;
  {
    ScopedSpan span(tracer, "api.search", rid, root.id());
    auto made = engine.Search(request);
    if (!made.ok()) {
      run.status = made.status();
      return run;
    }
    cursor.emplace(std::move(made).value());
  }
  bool first = true;
  while (true) {
    ScopedSpan span(tracer, "core.next", rid, root.id());
    auto next = cursor->Next();
    if (first) {
      run.first_hit_ms = (NowNs() - t0) * 1e-6;
      run.first_stats = cursor->stats();
      first = false;
    }
    if (!next.ok()) {
      run.status = next.status();
      break;
    }
    if (!next->has_value()) break;
    run.stream.Add(**next);
  }
  run.latency_ms = (NowNs() - t0) * 1e-6;
  run.stats = cursor->stats();
  return run;
}

// ---------------------------------------------------------------------------
// Correctness against references computed outside the suffix-tree search.

/// Sorted (sequence, score) pairs of a Smith-Waterman scan at `min_score`.
std::vector<std::pair<uint32_t, score::ScoreT>> ScanPairs(
    const Query& query, const seq::SequenceDatabase& db,
    const score::SubstitutionMatrix& matrix, score::ScoreT min_score,
    align::AlignStats* stats, align::simd::SimdMode simd) {
  auto hits = align::ScanDatabase(query, db, matrix,
                                  std::max<score::ScoreT>(min_score, 1), stats,
                                  simd);
  std::vector<std::pair<uint32_t, score::ScoreT>> pairs;
  pairs.reserve(hits.size());
  for (const auto& h : hits) pairs.emplace_back(h.sequence_id, h.score);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Re-scores reported hits with the scalar pairwise aligner.
void Rescore(const Query& query, const seq::SequenceDatabase& db,
             const score::SubstitutionMatrix& matrix,
             const std::vector<std::pair<uint32_t, score::ScoreT>>& hits,
             Checks* checks, const std::string& where) {
  for (const auto& [id, score] : hits) {
    const align::SequenceHit best =
        align::AlignPair(query, db.sequence(id).symbols(), matrix);
    checks->Expect(best.score == score,
                   where + ": AlignPair rescored " + std::to_string(best.score) +
                       " for reported " + std::to_string(score));
  }
}

// ---------------------------------------------------------------------------
// Replays of single-layer calls on the workload's tree (traced runs).

void ReplayLayers(const suffix::PackedSuffixTree& tree, bool memo,
                  uint64_t seed, uint32_t calls, Tracer* tracer) {
  const suffix::TreeCursor cursor(&tree, memo);
  util::Random rng(Mix(seed, 11));
  // Internal nodes reached by random root-to-node walks; the walks are not
  // timed.
  std::vector<std::pair<suffix::PackedNodeRef, uint32_t>> nodes;
  std::vector<suffix::ChildArc> children;
  while (nodes.size() < calls) {
    suffix::PackedNodeRef node = cursor.Root();
    uint32_t depth = 0;
    const uint32_t steps = 1 + static_cast<uint32_t>(rng.Uniform(6));
    for (uint32_t s = 0; s < steps; ++s) {
      children.clear();
      util::Status st = cursor.ForEachChild(node, depth, [&](const suffix::ChildArc& c) {
        if (!c.node.is_leaf) children.push_back(c);
        return true;
      });
      if (!st.ok()) Die("ForEachChild: " + st.ToString());
      if (children.empty()) break;
      const suffix::ChildArc& pick = children[rng.Uniform(children.size())];
      node = pick.node;
      depth = pick.depth;
    }
    nodes.emplace_back(node, depth);
  }
  constexpr uint32_t kBatch = 256;
  // The replayed calls live in the library's own translation units, so
  // the compiler cannot drop them; their results are not needed.
  for (uint32_t b = 0; b < calls; b += kBatch) {
    const uint32_t n = std::min(kBatch, calls - b);
    ScopedSpan span(tracer, "suffix.for_each_child", 0, -1, n);
    for (uint32_t i = b; i < b + n; ++i) {
      (void)cursor.ForEachChild(nodes[i].first, nodes[i].second,
                                [](const suffix::ChildArc&) { return true; });
    }
  }
  // Leaves under deep-ish nodes, bounded so one call cannot dominate.
  std::vector<uint64_t> leaves;
  uint64_t leaf_total = 0;
  const int32_t leaves_span = tracer->Begin("suffix.collect_leaves", 0);
  for (uint32_t i = 0; i < calls / 8; ++i) {
    leaves.clear();
    (void)cursor.CollectLeafPositions(nodes[i].first, &leaves, 4096);
    leaf_total += leaves.size();
  }
  tracer->End(leaves_span);
  tracer->SetCount(leaves_span, std::max<uint64_t>(leaf_total, 1));
  std::vector<uint8_t> symbols;
  const uint64_t total = tree.total_length();
  std::vector<std::pair<uint64_t, uint32_t>> arcs(calls);
  uint64_t symbol_total = 0;
  for (auto& a : arcs) {
    a.second = 1 + static_cast<uint32_t>(rng.Uniform(16));
    a.first = rng.Uniform(total - a.second);
    symbol_total += a.second;
  }
  {
    ScopedSpan span(tracer, "suffix.read_arc_symbols", 0, -1, symbol_total);
    for (const auto& a : arcs) {
      (void)cursor.ReadArcSymbols(a.first, a.second, &symbols);
    }
  }
  std::vector<uint64_t> positions(calls);
  for (auto& p : positions) p = rng.Uniform(total);
  {
    ScopedSpan span(tracer, "suffix.sequence_of", 0, -1, calls);
    for (uint64_t p : positions) (void)tree.SequenceOf(p);
  }
  std::vector<uint32_t> records(calls);
  for (auto& r : records) r = static_cast<uint32_t>(rng.Uniform(tree.num_internal()));
  {
    ScopedSpan span(tracer, "storage.read_internal", 0, -1, calls);
    for (uint32_t r : records) {
      (void)tree.ReadInternal(r);
    }
  }
}

// ---------------------------------------------------------------------------
// Pool counters, summed per segment kind over every volume.

struct PoolCounts {
  uint64_t requests[3] = {0, 0, 0};  ///< internal, leaves, symbols
  uint64_t hits[3] = {0, 0, 0};
};

constexpr const char* kSegmentKinds[3] = {"internal", "leaves", "symbols"};

int SegmentKind(std::string_view name) {
  for (int k = 0; k < 3; ++k) {
    const std::string_view kind = kSegmentKinds[k];
    if (name.size() >= kind.size() &&
        name.substr(name.size() - kind.size()) == kind) {
      return k;
    }
  }
  return -1;
}

PoolCounts EnginePoolCounts(const api::Engine& engine) {
  PoolCounts counts;
  const util::EngineStatsSnapshot snap = engine.CollectStats();
  for (const auto& row : snap.segments) {
    const int k = SegmentKind(row.name);
    if (k < 0) continue;
    counts.requests[k] += row.requests;
    counts.hits[k] += row.hits;
  }
  return counts;
}

PoolCounts Minus(const PoolCounts& a, const PoolCounts& b) {
  PoolCounts d;
  for (int k = 0; k < 3; ++k) {
    d.requests[k] = a.requests[k] - b.requests[k];
    d.hits[k] = a.hits[k] - b.hits[k];
  }
  return d;
}

/// Value of the first numeric `"key":` after `from` in a JSON document.
uint64_t JsonNumber(const std::string& doc, size_t from, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + needle.size(), nullptr, 10);
}

/// Pool counters from the daemon's /stats document.
PoolCounts StatsPoolCounts(const std::string& doc) {
  PoolCounts counts;
  const size_t seg_begin = doc.find("\"segments\":[");
  if (seg_begin == std::string::npos) return counts;
  const size_t seg_end = doc.find(']', seg_begin);
  size_t at = seg_begin;
  while (true) {
    at = doc.find("{\"name\":\"", at);
    if (at == std::string::npos || at > seg_end) break;
    const size_t name_begin = at + 9;
    const size_t name_end = doc.find('"', name_begin);
    const int k = SegmentKind(std::string_view(doc).substr(name_begin, name_end - name_begin));
    if (k >= 0) {
      counts.requests[k] += JsonNumber(doc, name_end, "requests");
      counts.hits[k] += JsonNumber(doc, name_end, "hits");
    }
    at = name_end;
  }
  return counts;
}

void EmitPoolMetrics(JsonOut* out, const PoolCounts& delta, double queries) {
  for (int k = 0; k < 3; ++k) {
    const std::string prefix = std::string("storage.") + kSegmentKinds[k];
    const double req = static_cast<double>(delta.requests[k]);
    const double miss = static_cast<double>(delta.requests[k] - delta.hits[k]);
    out->Metric(prefix + ".requests_per_query", queries > 0 ? req / queries : 0,
                "count");
    out->Metric(prefix + ".misses_per_query", queries > 0 ? miss / queries : 0,
                "count");
    out->Metric(prefix + ".hit_ratio", req > 0 ? (req - miss) / req : 0, "ratio");
  }
}

/// Per-query means of the cursor counters.
void EmitCoreMetrics(JsonOut* out, const std::vector<core::OasisStats>& stats,
                     const std::vector<core::OasisStats>& first,
                     double drain_ns) {
  double cells = 0, columns = 0, expanded = 0, unviable = 0, queue = 0,
         first_cells = 0;
  for (const auto& s : stats) {
    cells += s.cells_computed;
    columns += s.columns_expanded;
    expanded += s.nodes_expanded;
    unviable += s.nodes_unviable;
    queue += s.max_queue_size;
  }
  for (const auto& s : first) first_cells += s.cells_computed;
  const double n = std::max<double>(stats.size(), 1);
  out->Metric("core.cells_per_query", cells / n, "count");
  out->Metric("core.columns_per_query", columns / n, "count");
  out->Metric("core.nodes_expanded_per_query", expanded / n, "count");
  out->Metric("core.nodes_unviable_per_query", unviable / n, "count");
  out->Metric("core.max_queue_per_query", queue / n, "count");
  out->Metric("core.ns_per_cell", cells > 0 ? drain_ns / cells : 0, "ns");
  out->Metric("core.cells_to_first_hit",
              first_cells / std::max<double>(first.size(), 1), "count");
}

/// ns per call of each single-layer replay (see ReplayLayers).
void EmitReplayMetrics(JsonOut* out, const std::vector<const Tracer*>& tracers) {
  out->Metric("suffix.for_each_child_ns",
              NsPerCall(tracers, "suffix.for_each_child"), "ns");
  out->Metric("suffix.collect_leaves_ns_per_leaf",
              NsPerCall(tracers, "suffix.collect_leaves"), "ns");
  out->Metric("suffix.read_arc_symbols_ns_per_symbol",
              NsPerCall(tracers, "suffix.read_arc_symbols"), "ns");
  out->Metric("suffix.sequence_of_ns", NsPerCall(tracers, "suffix.sequence_of"),
              "ns");
  out->Metric("storage.read_internal_ns",
              NsPerCall(tracers, "storage.read_internal"), "ns");
}

/// Compares this run's deterministic counts with an earlier run of the same
/// build and seed (a line per key in `dir`/<seed>.txt); records them when
/// absent. Differences fail the run.
void CheckDigest(const std::string& dir, uint64_t seed, const std::string& key,
                 const std::string& value, Checks* checks) {
  fs::create_directories(dir);
  const std::string path = dir + "/" + std::to_string(seed) + ".txt";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab != std::string::npos && line.substr(0, tab) == key) {
      checks->Expect(line.substr(tab + 1) == value,
                     "deterministic counts '" + key + "' differ from an earlier "
                     "run of the same seed: " + value + " vs " +
                     line.substr(tab + 1));
      return;
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << '\t' << value << '\n';
}

// ---------------------------------------------------------------------------
// fig3-mmap / fig7-pool: one in-process client draining every stream.

/// Checks one drained stream against the Smith-Waterman scan of the whole
/// database at the same minScore.
void CheckAgainstScan(const api::Engine& engine, const Inputs& in,
                          const Query& query, const api::SearchRequest& request,
                          const Stream& stream, Checks* checks,
                          const std::string& where) {
  const score::ScoreT min_score =
      Unwrap(engine.ResolveMinScore(request), "ResolveMinScore");
  const auto expected = ScanPairs(query, *in.db, *in.matrix, min_score,
                                  nullptr, align::simd::SimdMode::kAuto);
  uint64_t set_hash = 0;
  for (const auto& [id, score] : expected) set_hash += Stream::PairHash(id, score);
  checks->Expect(stream.count == expected.size() && stream.set_hash == set_hash,
                 where + ": " + std::to_string(stream.count) +
                     " hits, the S-W scan finds " +
                     std::to_string(expected.size()) +
                     (stream.count == expected.size() ? " (different pairs)" : ""));
  checks->Expect(stream.non_increasing, where + ": scores increase along the stream");
  Rescore(query, *in.db, *in.matrix, stream.sample, checks, where);
}

int ServeLocal(const Args& args, const Scale& scale) {
  const LocalQueries queries = ReadLocalQueries(args.dir + ".queries");
  const auto& rounds = queries.rounds;
  const api::EngineOptions options = WorkloadOptions(args.workload, scale);
  auto engine = Unwrap(api::Engine::Open(args.dir, options), "Open");
  const bool pooled = args.workload == Workload::kFig7Pool;
  Checks checks;
  checks.Expect(engine->uses_pool() == pooled,
                pooled ? "fig7-pool engine is not pooled"
                       : "fig3-mmap engine resolved to the pool");
  Tracer tracer(args.trace);
  Tracer off(false);

  // Warm-up on queries of its own: maps the index into the page cache and
  // fills the pool before anything is timed.
  for (const Query& query : queries.warm) {
    LocalRun run = RunLocal(*engine, MakeRequest(query, false), &off, 0);
    checks.Expect(run.status.ok(), "warm-up query failed: " + run.status.ToString());
  }

  // Timed phase: whole rounds until --seconds have passed and the latency
  // sample supports the reported percentile.
  struct Done {
    size_t round, index;
    LocalRun run;
  };
  std::vector<Done> done;
  done.reserve(scale.rounds_max * scale.round_queries);
  std::vector<PoolCounts> round_pool;
  uint64_t attempted = 0, failed = 0;
  uint32_t rid = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  size_t r = 0;
  for (; r < rounds.size() && (NowNs() < deadline || attempted < scale.min_samples);
       ++r) {
    const PoolCounts before = pooled ? EnginePoolCounts(*engine) : PoolCounts();
    for (size_t i = 0; i < rounds[r].size(); ++i) {
      ++attempted;
      LocalRun run = RunLocal(*engine, MakeRequest(rounds[r][i], false), &tracer, ++rid);
      if (!run.status.ok()) {
        ++failed;
        std::fprintf(stderr, "query failed: %s\n", run.status.ToString().c_str());
        continue;
      }
      done.push_back({r, i, std::move(run)});
    }
    if (pooled) round_pool.push_back(Minus(EnginePoolCounts(*engine), before));
  }
  const double elapsed_s = (NowNs() - start) * 1e-9;
  const double peak_rss_mb = PeakRssMb(::getpid());
  const size_t timed_rounds = r;
  // The database, for the references, only now that the peak is read.
  const Inputs in = MakeInputs(args.workload, args.seed, scale);

  // References: every stream's (sequence, score) set against the S-W scan
  // at the same minScore, non-increasing scores, AlignPair re-scoring.
  std::vector<double> latency_ms, first_hit_ms;
  std::vector<core::OasisStats> stats, first_stats;
  std::vector<Fnv> round_digest(timed_rounds);
  for (const Done& d : done) {
    latency_ms.push_back(d.run.latency_ms);
    first_hit_ms.push_back(d.run.first_hit_ms);
    stats.push_back(d.run.stats);
    first_stats.push_back(d.run.first_stats);
    round_digest[d.round].Add(d.run.stream.order_hash);
    round_digest[d.round].Add(d.run.stats.cells_computed);
  }
  ParallelFor(done.size(), [&](size_t k) {
    const Done& d = done[k];
    const Query& query = rounds[d.round][d.index];
    CheckAgainstScan(*engine, in, query, MakeRequest(query, false), d.run.stream,
                     &checks,
                     "round " + std::to_string(d.round) + " query " +
                         std::to_string(d.index));
  });

  // Determinism: the first queries of round 0 again, on this engine and —
  // for the pool — on a mapped engine over the same index (fig3-mmap and
  // fig7-pool must agree exactly in cells and streams).
  constexpr size_t kRechecks = 8;
  std::unique_ptr<api::Engine> mapped;
  if (pooled) {
    api::EngineOptions mmap_options;
    mmap_options.io_mode = api::IoMode::kMmap;
    mapped = Unwrap(api::Engine::Open(args.dir, mmap_options), "Open mmap");
  }
  for (size_t k = 0; k < std::min(kRechecks, done.size()); ++k) {
    const Done& d = done[k];
    if (d.round != 0) break;
    const api::SearchRequest request = MakeRequest(rounds[0][d.index], false);
    const std::string where = "query " + std::to_string(d.index);
    LocalRun again = RunLocal(*engine, request, &off, 0);
    checks.Expect(again.stream.SameAs(d.run.stream) &&
                      again.stats.cells_computed == d.run.stats.cells_computed,
                  where + ": a second run differs");
    if (mapped) {
      LocalRun other = RunLocal(*mapped, request, &off, 0);
      checks.Expect(other.stream.SameAs(d.run.stream) &&
                        other.stats.cells_computed == d.run.stats.cells_computed,
                    where + ": mmap and pool differ");
    }
  }

  // Deterministic counts, round by round, against earlier runs of this
  // build and seed; fig3-mmap and fig7-pool share the stream keys.
  for (size_t k = 0; k < timed_rounds; ++k) {
    CheckDigest(args.digests, args.seed, "streams.round" + std::to_string(k),
                std::to_string(round_digest[k].h), &checks);
    if (pooled) {
      Fnv pool;
      for (int s = 0; s < 3; ++s) {
        pool.Add(round_pool[k].requests[s]);
        pool.Add(round_pool[k].hits[s]);
      }
      CheckDigest(args.digests, args.seed, "pool.round" + std::to_string(k),
                  std::to_string(pool.h), &checks);
    }
  }

  // Figure 3's comparison on round 0, one thread, untimed by the run: OASIS
  // as timed above, the SIMD and the scalar S-W scan at the same minScore.
  if (args.workload == Workload::kFig3Mmap) {
    double oasis_s = 0, oasis_cells = 0, simd_s = 0, scalar_s = 0, sw_cells = 0;
    size_t n = 0;
    for (; n < done.size() && done[n].round == 0; ++n) {
      const Done& d = done[n];
      const Query& query = rounds[0][d.index];
      const score::ScoreT min_score = Unwrap(
          engine->ResolveMinScore(MakeRequest(query, false)), "ResolveMinScore");
      oasis_s += d.run.latency_ms * 1e-3;
      oasis_cells += static_cast<double>(d.run.stats.cells_computed);
      align::AlignStats sw_stats;
      int64_t t0 = NowNs();
      (void)ScanPairs(query, *in.db, *in.matrix, min_score, &sw_stats,
                      align::simd::SimdMode::kAuto);
      simd_s += (NowNs() - t0) * 1e-9;
      t0 = NowNs();
      (void)ScanPairs(query, *in.db, *in.matrix, min_score, nullptr,
                      align::simd::SimdMode::kOff);
      scalar_s += (NowNs() - t0) * 1e-9;
      sw_cells += static_cast<double>(sw_stats.cells_computed);
    }
    if (n > 0) std::printf("reference: queries=%zu oasis_ms_per_query=%.3f "
                "oasis_cells_per_query=%.0f oasis_ns_per_cell=%.3f "
                "sw_cells_per_query=%.0f sw_simd_ms_per_query=%.3f "
                "sw_simd_ns_per_cell=%.4f sw_scalar_ms_per_query=%.3f "
                "sw_scalar_ns_per_cell=%.4f simd_level=%s\n",
                n, 1e3 * oasis_s / n, oasis_cells / n, 1e9 * oasis_s / oasis_cells,
                sw_cells / n, 1e3 * simd_s / n, 1e9 * simd_s / sw_cells,
                1e3 * scalar_s / n, 1e9 * scalar_s / sw_cells,
                align::simd::SimdLevelName(engine->simd_level()));
  }

  JsonOut out;
  if (!args.trace) {
    out.Metric("qps", static_cast<double>(done.size()) / elapsed_s, "1/s");
    out.Metric("query_p50_ms", Median(latency_ms), "ms");
    out.Metric("query_p90_ms", Percentile(latency_ms, 0.90), "ms");
    out.Metric("first_hit_gmean_ms", GeoMean(first_hit_ms), "ms");
    out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    ReplayLayers(engine->tree(), pooled, args.seed, scale.replay_calls, &tracer);
    const std::vector<const Tracer*> tracers{&tracer};
    double drain_ns = 0;
    for (const double ns : SpanNs(tracers, "core.next")) drain_ns += ns;
    out.Metric("trace.qps", static_cast<double>(done.size()) / elapsed_s, "1/s");
    out.Metric("api.search_call_us", Median(SpanNs(tracers, "api.search")) * 1e-3,
               "us");
    out.Metric("score.min_score_us",
               Median(SpanNs(tracers, "score.min_score")) * 1e-3, "us");
    EmitCoreMetrics(&out, stats, first_stats, drain_ns);
    out.Metric("core.next_us_p50", Median(SpanNs(tracers, "core.next")) * 1e-3,
               "us");
    EmitReplayMetrics(&out, tracers);
    PoolCounts timed;
    for (const PoolCounts& c : round_pool) {
      for (int k = 0; k < 3; ++k) {
        timed.requests[k] += c.requests[k];
        timed.hits[k] += c.hits[k];
      }
    }
    EmitPoolMetrics(&out, timed, static_cast<double>(done.size()));
    // No daemon in this workload: the server layer does no work.
    out.Metric("server.overhead_us_p50", 0, "us");
    out.Metric("server.cache_hits", 0, "count");
    out.Metric("server.cache_lookups", 0, "count");
    out.Metric("server.admission_rejected", 0, "count");
    WriteSpans(tracers, args.dir + ".spans.tsv");
  }
  out.Print(checks.failures == 0, attempted, failed);
  return 0;
}

// ---------------------------------------------------------------------------
// fig9-daemon: two clients, closed loop, TopK(40) through oasisd.

/// Parses "NAME score=S ..." hit lines into (global id, score).
bool ParseHitLine(std::string_view line, const Inputs& in, uint32_t* id,
                  score::ScoreT* score) {
  const size_t space = line.find(' ');
  const size_t at = line.find("score=");
  if (space == std::string_view::npos || at == std::string_view::npos) return false;
  auto found = in.id_of.find(std::string(line.substr(0, space)));
  if (found == in.id_of.end()) return false;
  *id = found->second;
  *score = static_cast<score::ScoreT>(std::strtol(line.data() + at + 6, nullptr, 10));
  return true;
}

struct DaemonRequest {
  uint32_t client = 0;
  size_t query = 0;   ///< index into the client's distinct queries
  bool repeat = false;
  bool ok = false;
  bool cached = false;
  double latency_ms = 0;
  double first_hit_ms = 0;
  std::vector<std::string> lines;
};

/// One client's requests: per round, `distinct` fresh queries, each third
/// one followed by a repeat of the request just before it (a quarter of
/// all requests repeat an earlier request of the same client).
struct ClientPlan {
  std::vector<Query> queries;  ///< distinct, in send order
  std::vector<std::vector<std::pair<size_t, bool>>> rounds;  ///< (query, repeat)
};

ClientPlan PlanClient(const Inputs& in, uint64_t seed, uint32_t client,
                      const Scale& scale, std::set<Query>* used,
                      uint64_t* replaced) {
  ClientPlan plan;
  for (uint32_t r = 0; r < scale.rounds_max; ++r) {
    auto fresh = StratifiedQueries(*in.db, *in.matrix,
                                   Mix(seed, 1000 + 100000 * client + r),
                                   scale.daemon_distinct, used, replaced);
    std::vector<std::pair<size_t, bool>> round;
    for (uint32_t i = 0; i < fresh.size(); ++i) {
      plan.queries.push_back(std::move(fresh[i]));
      round.emplace_back(plan.queries.size() - 1, false);
      if (i % 3 == 2) round.emplace_back(plan.queries.size() - 2, true);
    }
    plan.rounds.push_back(std::move(round));
  }
  return plan;
}

int ServeDaemon(const Args& args, const Scale& scale) {
  Inputs in = MakeInputs(args.workload, args.seed, scale);
  const seq::Alphabet& alphabet = in.db->alphabet();
  constexpr uint32_t kClients = 2;
  // Every query of the run is distinct (see StratifiedQueries), so only the
  // planned repeats can be served from the result cache. Warm-up requests
  // use queries of their own, so they leave nothing in the cache that the
  // timed phase would hit.
  std::set<Query> used;
  uint64_t replaced = 0;
  const auto warm =
      StratifiedQueries(*in.db, *in.matrix, Mix(args.seed, 99), 4, &used, &replaced);
  std::vector<ClientPlan> plans;
  for (uint32_t c = 0; c < kClients; ++c) {
    plans.push_back(PlanClient(in, args.seed, c, scale, &used, &replaced));
  }
  // Traced runs: requests of their own for the server overhead.
  const auto solo_queries =
      args.trace ? StratifiedQueries(*in.db, *in.matrix, Mix(args.seed, 98),
                                     scale.overhead_requests, &used, &replaced)
                 : std::vector<Query>();
  std::fprintf(stderr, "fig9 plan: %zu distinct queries, %llu candidates "
               "passed over as repeats of earlier ones\n", used.size(),
               static_cast<unsigned long long>(replaced));
  Checks checks;

  auto daemon = Daemon::Start(args.oasisd, args.dir, args.dir + ".log");
  std::vector<server::DaemonClient> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(Unwrap(server::DaemonClient::Connect("127.0.0.1", daemon->port()),
                             "connect"));
  }
  auto send = [&](server::DaemonClient& client, const Query& query,
                  DaemonRequest* req, Tracer* tracer, uint32_t rid,
                  bool no_cache = false) {
    server::WireRequest wire;
    wire.query = alphabet.Decode(query);
    wire.evalue = kEValue;
    wire.top_k = kTopK;
    wire.no_cache = no_cache;
    req->lines.clear();
    const int64_t t0 = NowNs();
    ScopedSpan span(tracer, "server.request", rid);
    auto outcome = client.Query(wire, [&](std::string_view line) {
      if (req->lines.empty()) req->first_hit_ms = (NowNs() - t0) * 1e-6;
      req->lines.emplace_back(line);
      return true;
    });
    req->latency_ms = (NowNs() - t0) * 1e-6;
    if (req->lines.empty()) req->first_hit_ms = req->latency_ms;
    req->ok = outcome.ok();
    req->cached = outcome.ok() && outcome->cached;
    if (!outcome.ok()) {
      std::fprintf(stderr, "daemon request failed: %s\n",
                   outcome.status().ToString().c_str());
    }
  };
  for (size_t i = 0; i < warm.size(); ++i) {
    DaemonRequest req;
    Tracer off(false);
    send(clients[i % kClients], warm[i], &req, &off, 0);
    checks.Expect(req.ok, "warm-up request failed");
  }
  const std::string stats_before = Unwrap(clients[0].Stats(), "stats");

  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<DaemonRequest>> done(kClients);
  for (uint32_t c = 0; c < kClients; ++c) tracers.push_back(std::make_unique<Tracer>(args.trace));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  std::atomic<uint64_t> finished{0};
  std::vector<int64_t> client_end(kClients, start);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      uint32_t rid = c << 24;
      for (const auto& round : plans[c].rounds) {
        if (NowNs() >= deadline &&
            finished.load() >= scale.min_samples) {
          break;
        }
        for (const auto& [query, repeat] : round) {
          DaemonRequest req;
          req.client = c;
          req.query = query;
          req.repeat = repeat;
          send(clients[c], plans[c].queries[query], &req, tracers[c].get(), ++rid);
          done[c].push_back(std::move(req));
          finished.fetch_add(1);
        }
      }
      client_end[c] = NowNs();
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      (*std::max_element(client_end.begin(), client_end.end()) - start) * 1e-9;
  const std::string stats_after = Unwrap(clients[0].Stats(), "stats");
  const double peak_rss_mb = PeakRssMb(daemon->pid());
  // The references below and the in-process side of the server overhead
  // use the same index, opened as oasisd opens it.
  api::EngineOptions local_options;
  local_options.io_mode = api::IoMode::kPooled;
  auto engine = Unwrap(api::Engine::Open(args.dir, local_options), "Open");
  // server.overhead_us_p50: each of the traced run's own requests, one at
  // a time, through oasisd on one connection with the result cache
  // bypassed and in process, alternately and several times. Per request
  // the fastest of each side is kept, which leaves out most of what the
  // machine adds. An untimed in-process pass warms the engine's pool
  // first; the daemon's is warm from the timed phase.
  constexpr int kOverheadRepeats = 3;
  Tracer off(false);
  for (const Query& query : solo_queries) {
    (void)RunLocal(*engine, MakeRequest(query, true), &off, 0);
  }
  std::vector<double> overhead_us;
  for (size_t i = 0; i < solo_queries.size(); ++i) {
    const api::SearchRequest request = MakeRequest(solo_queries[i], true);
    double remote_ms = 1e300, local_ms = 1e300;
    for (int k = 0; k < kOverheadRepeats; ++k) {
      DaemonRequest remote;
      send(clients[0], solo_queries[i], &remote, &off, 0, /*no_cache=*/true);
      const LocalRun local = RunLocal(*engine, request, &off, 0);
      checks.Expect(remote.ok && !remote.cached && local.status.ok() &&
                        local.stream.count == remote.lines.size(),
                    "sequential request " + std::to_string(i) +
                        ": failed, came from the cache, or in process and "
                        "oasisd differ in hit count");
      remote_ms = std::min(remote_ms, remote.latency_ms);
      local_ms = std::min(local_ms, local.latency_ms);
    }
    overhead_us.push_back((remote_ms - local_ms) * 1e3);
  }
  clients.clear();
  daemon->Stop();

  uint64_t attempted = 0, failed = 0, computed = 0;
  std::vector<double> latency_ms, first_hit_ms;
  for (uint32_t c = 0; c < kClients; ++c) {
    std::map<size_t, const DaemonRequest*> first;
    for (const DaemonRequest& req : done[c]) {
      ++attempted;
      if (!req.ok) {
        ++failed;
        continue;
      }
      latency_ms.push_back(req.latency_ms);
      first_hit_ms.push_back(req.first_hit_ms);
      if (!req.cached) ++computed;
      auto [it, inserted] = first.emplace(req.query, &req);
      if (!inserted) {
        checks.Expect(req.lines == it->second->lines,
                      "client " + std::to_string(c) +
                          ": repeated request differs from the first computation");
        checks.Expect(req.cached, "repeated request was not served from the cache");
      } else {
        checks.Expect(!req.repeat && !req.cached,
                      "first computation was served from the cache");
      }
    }
  }

  // References: the top 40 scores of the S-W scan over the whole set; every
  // reported (sequence, score) pair appears in the scan.
  checks.Expect(engine->num_volumes() > 1, "fig9 index is not a volume set");
  checks.Expect(engine->num_residues() == in.db->num_residues(),
                "volume set does not hold the whole database");
  std::vector<const DaemonRequest*> distinct;
  Fnv first_round;
  for (uint32_t c = 0; c < kClients; ++c) {
    std::set<size_t> seen;
    for (const DaemonRequest& req : done[c]) {
      if (!req.ok || !seen.insert(req.query).second) continue;
      distinct.push_back(&req);
      if (req.query < scale.daemon_distinct) {
        for (const std::string& line : req.lines) first_round.Add(line);
      }
    }
  }
  ParallelFor(distinct.size(), [&](size_t k) {
    const DaemonRequest& req = *distinct[k];
    const Query& query = plans[req.client].queries[req.query];
    const std::string where = "client " + std::to_string(req.client) +
                              " request " + std::to_string(req.query);
    const score::ScoreT min_score = Unwrap(
        engine->ResolveMinScore(MakeRequest(query, true)), "ResolveMinScore");
    const auto scan = ScanPairs(query, *in.db, *in.matrix, min_score, nullptr,
                                align::simd::SimdMode::kAuto);
    std::vector<score::ScoreT> expected;
    for (const auto& p : scan) expected.push_back(p.second);
    std::sort(expected.rbegin(), expected.rend());
    if (expected.size() > kTopK) expected.resize(kTopK);
    std::vector<score::ScoreT> got;
    std::vector<std::pair<uint32_t, score::ScoreT>> pairs;
    for (const std::string& line : req.lines) {
      uint32_t id;
      score::ScoreT score;
      if (!ParseHitLine(line, in, &id, &score)) {
        checks.Fail(where + ": unparsable hit line '" + line + "'");
        continue;
      }
      got.push_back(score);
      pairs.emplace_back(id, score);
      checks.Expect(std::binary_search(scan.begin(), scan.end(),
                                       std::make_pair(id, score)),
                    where + ": reported pair not in the S-W scan");
    }
    checks.Expect(got == expected, where + ": top-40 scores differ from S-W");
    Rescore(query, *in.db, *in.matrix, pairs, &checks, where);
  });
  CheckDigest(args.digests, args.seed, "daemon.first_round",
              std::to_string(first_round.h), &checks);

  JsonOut out;
  const double served = static_cast<double>(latency_ms.size());
  if (!args.trace) {
    out.Metric("qps", served / elapsed_s, "1/s");
    out.Metric("query_p50_ms", Median(latency_ms), "ms");
    out.Metric("query_p90_ms", Percentile(latency_ms, 0.90), "ms");
    out.Metric("first_hit_gmean_ms", GeoMean(first_hit_ms), "ms");
    out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    // The sequential requests once more in process, traced: the core
    // counters and the spans of the search calls.
    Tracer local(true);
    std::vector<core::OasisStats> stats, first_stats;
    for (size_t i = 0; i < solo_queries.size(); ++i) {
      const LocalRun run = RunLocal(*engine, MakeRequest(solo_queries[i], true), &local,
                                    static_cast<uint32_t>(i + 1));
      stats.push_back(run.stats);
      first_stats.push_back(run.first_stats);
    }
    // Tree-level replays run on the set's first volume, opened on its own
    // the way the daemon opens the set (pooled).
    auto volume = Unwrap(
        api::Engine::Open(args.dir + "/" + engine->volume_names()[0], local_options),
        "Open volume");
    ReplayLayers(volume->tree(), true, args.seed, scale.replay_calls, &local);
    std::vector<const Tracer*> all{&local};
    double drain_ns = 0;
    for (const double ns : SpanNs(all, "core.next")) drain_ns += ns;
    for (const auto& t : tracers) all.push_back(t.get());
    out.Metric("trace.qps", served / elapsed_s, "1/s");
    out.Metric("api.search_call_us", Median(SpanNs(all, "api.search")) * 1e-3, "us");
    out.Metric("score.min_score_us", Median(SpanNs(all, "score.min_score")) * 1e-3, "us");
    EmitCoreMetrics(&out, stats, first_stats, drain_ns);
    out.Metric("core.next_us_p50", Median(SpanNs(all, "core.next")) * 1e-3, "us");
    EmitReplayMetrics(&out, all);
    EmitPoolMetrics(&out, Minus(StatsPoolCounts(stats_after), StatsPoolCounts(stats_before)),
                    static_cast<double>(computed));
    out.Metric("server.overhead_us_p50", Median(overhead_us), "us");
    const size_t cache_at = stats_after.find("\"cache\":");
    const size_t cache_before = stats_before.find("\"cache\":");
    out.Metric("server.cache_hits",
               JsonNumber(stats_after, cache_at, "hits") -
                   JsonNumber(stats_before, cache_before, "hits"),
               "count");
    out.Metric("server.cache_lookups",
               JsonNumber(stats_after, cache_at, "lookups") -
                   JsonNumber(stats_before, cache_before, "lookups"),
               "count");
    uint64_t rejected = 0;
    for (const char* key : {"rejected_inflight", "rejected_pressure", "rejected_draining"}) {
      rejected += JsonNumber(stats_after, 0, key) - JsonNumber(stats_before, 0, key);
    }
    out.Metric("server.admission_rejected", static_cast<double>(rejected), "count");
    WriteSpans(all, args.dir + ".spans.tsv");
  }
  out.Print(checks.failures == 0, attempted, failed);
  return 0;
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: oasis_bench setup|serve --workload W --seed N ...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string name = value();
      auto w = ParseWorkload(name);
      if (!w) Die("unknown workload '" + name + "'");
      args.workload = *w;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--dir") {
      args.dir = value();
    } else if (flag == "--oasisd") {
      args.oasisd = value();
    } else if (flag == "--digests") {
      args.digests = value();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.dir.empty()) Die("--dir is required");
  if (args.command == "serve" && args.digests.empty()) Die("--digests is required");
  // Smoke and full-size inputs differ, so their counts are kept apart.
  args.digests += args.smoke ? "/smoke" : "/full";
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Scale& scale = args.smoke ? kSmokeScale : kFullScale;
  if (args.command == "setup") return RunSetup(args, scale);
  if (args.command == "serve") {
    return args.workload == Workload::kFig9Daemon ? ServeDaemon(args, scale)
                                                  : ServeLocal(args, scale);
  }
  Die("unknown command " + args.command);
}

}  // namespace
}  // namespace perfbench
}  // namespace oasis

int main(int argc, char** argv) { return oasis::perfbench::Main(argc, argv); }
