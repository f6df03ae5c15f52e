// The repository benchmark: three workloads over FastQre, each checked
// against reference answers computed during set-up.
//
//   ladder     closed loop, one client: each pass runs L01..L10 once in a
//              seeded order, Reverse() on a fresh engine with default
//              options, TPC-H SF 0.004.
//   ladder-t4  the same requests with validation_threads = 4.
//   service    a JobManager (2 workers) behind the real Server on loopback,
//              four closed-loop client connections submitting a seeded mix
//              of exact ReverseAll (limit 1-3) and superset (limit 1) jobs
//              over L01-L04, L08, L09, TPC-H SF 0.001.
//
// With --trace 0 the run reports end-to-end metrics; with --trace 1 it
// reports per-layer metrics, measured from outside the program by timing
// the benchmark's own calls into each layer (see replay.h, wire_client.h),
// and writes the spans to --trace-out. The last line of stdout is one JSON
// record; perfbench/run.py builds this program and reduces that record to
// the result line.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"
#include "replay.h"
#include "server/job_manager.h"
#include "server/json.h"
#include "server/server.h"
#include "stats_util.h"
#include "storage/csv.h"
#include "wire_client.h"

using namespace fastqre;
using namespace perfbench;

namespace {

constexpr double kLadderScale = 0.004;
constexpr double kServiceScale = 0.001;
// Set-up is repeated and its median reported, so one slow repetition on a
// shared host does not move setup_s.
constexpr int kSetupRepeats = 5;
// Validation threads of ladder-t4 and of the traced parallel runs (= nproc
// of the 4-vCPU host the benchmark was sized on).
constexpr int kParallelThreads = 4;
constexpr int kServiceClients = 4;
constexpr int kServiceWorkers = 2;
constexpr uint64_t kServiceSlice = 64ull << 20;
constexpr size_t kDeckSize = 4096;
// Client-side spans are kept for this many jobs per client (the per-layer
// metrics use every job); it bounds the span file of a traced service run.
constexpr size_t kTracedJobsPerClient = 1024;
// The cheap half of the ladder (L01-L04, L08, L09): engine work per job is
// small, so the service layers carry a visible share of each job.
constexpr size_t kServiceQueries[] = {0, 1, 2, 3, 7, 8};
// The top rung of each workload's ladder (top_p50_ms / top_p90_ms): L10
// (paper Query 1) on the ladders, L09 (paper Query 2) on service.
constexpr size_t kLadderTop = 9;
constexpr size_t kServiceTop = 8;

struct Args {
  std::string workload;
  // The generator's default seed. The ladder's work per query depends
  // strongly on the data (L10 takes 16-213 ms over data seeds 1-5), so the
  // data seed is fixed unless given; the mix seed varies the request order
  // and the service's job deck.
  uint64_t data_seed = 42;
  uint64_t mix_seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// Everything one run reports. `metrics` keeps insertion order.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  JsonValue metrics = JsonValue::Object();
  JsonValue detail = JsonValue::Object();
  JsonValue spans = JsonValue::Array();  // traced runs only
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Double(value));
    m.Set("unit", JsonValue::Str(unit));
    metrics.Set(name, std::move(m));
  }
  // One checked operation: a Reverse() call, a replay or a service job.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Error(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::string Describe(const std::vector<AnswerKey>& answers) {
  std::string out;
  for (const AnswerKey& a : answers) {
    out += (a.found ? "[found] " : "[unfound] ") + a.text + "; ";
  }
  return out;
}

std::vector<AnswerKey> Keys(const std::vector<QreAnswer>& answers) {
  std::vector<AnswerKey> out;
  for (const QreAnswer& a : answers) {
    out.push_back(AnswerKey{a.found, a.found ? a.sql : a.failure_reason});
  }
  return out;
}

/// One request on a fresh engine, timed end to end (construction, search,
/// destruction). Returns wall ms; `answers` receives the stream, `stats`
/// the stats of its last entry and `found` (if given) the found queries.
Result<double> TimedRequest(const Database& db, const Table& rout,
                            const QreOptions& options, int limit,
                            std::vector<AnswerKey>* answers, QreStats* stats,
                            std::vector<PJQuery>* found = nullptr) {
  Timer timer;
  {
    FastQre engine(&db, options);
    FASTQRE_ASSIGN_OR_RETURN(auto result, engine.ReverseAll(rout, limit));
    *answers = Keys(result);
    *stats = result.back().stats;
    for (const QreAnswer& a : result) {
      if (found != nullptr && a.found) found->push_back(a.query);
    }
  }
  return timer.ElapsedMillis();
}

/// Checks a reference independently of the search: each found query is
/// executed and its distinct rows compared with R_out's (equal for the
/// exact variant, a superset for the superset variant).
Status VerifyGenerating(const Database& db, const Table& rout,
                        const std::vector<PJQuery>& queries,
                        QreVariant variant) {
  const TupleSet want = TableToTupleSet(rout);
  for (const PJQuery& query : queries) {
    FASTQRE_ASSIGN_OR_RETURN(Table got, ExecuteToTable(db, query, "verify"));
    const TupleSet have = TableToTupleSet(got);
    const bool ok = variant == QreVariant::kExact ? have == want
                                                  : IsSubsetOf(want, have);
    if (!ok) {
      return Status::Internal(rout.name() +
                              ": reference answer does not generate R_out: " +
                              query.ToSql(db));
    }
  }
  return Status::OK();
}

QreOptions SerialOptions() { return QreOptions(); }

// ---- Per-layer aggregation --------------------------------------------------

/// Per-request layer sample: replay times, the workload engine's counters,
/// and what the replay adds to an untraced run.
struct LayerSample {
  LayerTimes times;
  QreStats stats;           // counters of the workload's own engine run
  QreStats replay_stats;    // counters of the serial replay
  QreStats parallel_stats;  // counters of a kParallelThreads run (ladders)
  uint64_t generating_verdicts = 0;
  double overhead_ms = 0;
  double extra_validations = 0;
};

/// Samples of one request shape and its weight (its share of the
/// workload's requests).
using LayerClass = std::pair<double, std::vector<LayerSample>>;

/// Reports the qre/engine/parallel per-layer metrics as per-request means:
/// the weighted mean over classes of each class's median.
void ReportLayers(const std::vector<LayerClass>& classes, Outcome* out) {
  double weight_sum = 0;
  for (const auto& [w, samples] : classes) {
    if (!samples.empty()) weight_sum += w;
  }
  auto mean = [&](auto field) {
    double sum = 0;
    for (const auto& [w, samples] : classes) {
      if (samples.empty()) continue;
      std::vector<double> v;
      for (const LayerSample& s : samples) v.push_back(field(s));
      sum += Median(std::move(v)) * w / weight_sum;
    }
    return sum;
  };
  auto counter = [&](RelaxedCounter QreStats::*field) {
    return mean([field](const LayerSample& s) {
      return static_cast<double>((s.stats.*field).value());
    });
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto times = [&](double LayerTimes::*field) {
    return mean([field](const LayerSample& s) { return s.times.*field; });
  };

  out->Metric("preprocess.cover_ms", times(&LayerTimes::cover_ms), "ms");
  out->Metric("preprocess.cgm_ms", times(&LayerTimes::cgm_ms), "ms");
  out->Metric("preprocess.cover_pairs_checked",
              counter(&QreStats::cover_pairs_checked), "count");
  out->Metric("search.mapping_ms", times(&LayerTimes::mapping_ms), "ms");
  out->Metric("search.walks_ms", times(&LayerTimes::walks_ms), "ms");
  out->Metric("search.compose_ms", times(&LayerTimes::compose_ms), "ms");
  const double generated = counter(&QreStats::candidates_generated);
  out->Metric("search.candidates_generated", generated, "count");
  out->Metric("search.walk_sets_expanded",
              counter(&QreStats::walk_sets_expanded), "count");
  out->Metric("search.pruned_dead", counter(&QreStats::candidates_pruned_dead),
              "count");
  out->Metric("validate.ms", times(&LayerTimes::validate_ms), "ms");
  out->Metric("validate.calls", counter(&QreStats::candidates_validated),
              "count");
  out->Metric("validate.full_checks", counter(&QreStats::full_validations),
              "count");
  out->Metric("validate.rows", counter(&QreStats::validation_rows), "count");
  out->Metric("validate.probe_rows", counter(&QreStats::probe_rows), "count");
  out->Metric("validate.coherence_rows", counter(&QreStats::coherence_rows),
              "count");
  out->Metric("validate.alltuple_rows", counter(&QreStats::alltuple_rows),
              "count");
  out->Metric("validate.fullscan_rows", counter(&QreStats::fullscan_rows),
              "count");
  // Generating verdicts over validations, both from the serial replay.
  out->Metric("validate.useful_ratio",
              ratio(mean([](const LayerSample& s) {
                      return static_cast<double>(s.generating_verdicts);
                    }),
                    mean([](const LayerSample& s) {
                      return static_cast<double>(
                          s.replay_stats.candidates_validated.value());
                    })),
              "ratio");
  const double walk_hits = counter(&QreStats::walk_cache_hits);
  out->Metric("cache.walk_hit_ratio",
              ratio(walk_hits,
                    walk_hits + counter(&QreStats::walk_cache_misses)),
              "ratio");
  const double subplan_hits = counter(&QreStats::subplan_cache_hits);
  out->Metric("cache.subplan_hit_ratio",
              ratio(subplan_hits,
                    subplan_hits + counter(&QreStats::subplan_cache_misses)),
              "ratio");
  out->Metric("engine.sip_rows_skipped", counter(&QreStats::sip_rows_skipped),
              "count");
  auto parallel = [&](RelaxedCounter QreStats::*field) {
    return mean([field](const LayerSample& s) {
      return static_cast<double>((s.parallel_stats.*field).value());
    });
  };
  out->Metric("parallel.cancelled_ratio",
              ratio(parallel(&QreStats::candidates_cancelled),
                    parallel(&QreStats::candidates_generated)),
              "ratio");
  out->Metric("parallel.extra_validations",
              mean([](const LayerSample& s) { return s.extra_validations; }),
              "count");
  double peak_tracked = 0;
  for (const auto& [w, samples] : classes) {
    for (const LayerSample& s : samples) {
      peak_tracked = std::max(
          peak_tracked,
          static_cast<double>(s.stats.peak_tracked_bytes.value()) / (1 << 20));
    }
  }
  out->Metric("memory.peak_tracked_mb", peak_tracked, "MB");
  out->Metric("trace.overhead_ms",
              mean([](const LayerSample& s) { return s.overhead_ms; }), "ms");
}

/// Reports the client-side wire/server metrics of a set of jobs.
void ReportWire(const std::vector<WireJob>& jobs, Outcome* out) {
  std::vector<double> encode, decode, bytes, accept, queue, engine;
  uint64_t rejections = 0;
  for (const WireJob& j : jobs) {
    encode.push_back(j.encode_us);
    decode.push_back(j.decode_us / static_cast<double>(j.frames));
    bytes.push_back(static_cast<double>(j.request_bytes));
    accept.push_back((j.accepted_us - j.written_us) / 1e3);
    queue.push_back((j.first_answer_us - j.accepted_us) / 1e3 -
                    j.first_engine_s * 1e3);
    engine.push_back(j.last_engine_s * 1e3);
    rejections += j.rejections;
  }
  double mean_bytes = 0;
  for (double b : bytes) mean_bytes += b / static_cast<double>(bytes.size());
  out->Metric("wire.encode_us", Median(encode), "us");
  out->Metric("wire.decode_us", Median(decode), "us");
  out->Metric("wire.request_bytes", mean_bytes, "bytes");
  out->Metric("server.accept_ms", Median(accept), "ms");
  out->Metric("server.queue_ms", Median(queue), "ms");
  out->Metric("engine.job_ms", Median(engine), "ms");
  out->Metric("admission.rejections", static_cast<double>(rejections),
              "count");
}

// ---- The loopback service ---------------------------------------------------

/// A JobManager behind a Server on an ephemeral loopback port, with
/// admission configured so it does not refuse at the benchmark's
/// concurrency.
struct Service {
  std::unique_ptr<JobManager> manager;
  std::unique_ptr<Server> server;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  Status Start(const Database* db, int workers, uint64_t slice_bytes) {
    JobManagerConfig config;
    config.worker_threads = workers;
    config.admission.global_budget_bytes = 0;
    config.admission.default_slice_bytes = slice_bytes;
    config.admission.max_in_flight_jobs = 64;
    config.admission.tenant_rate_per_second = 0;
    manager = std::make_unique<JobManager>(config);
    FASTQRE_RETURN_NOT_OK(manager->AttachDatabase("tpch", db));
    server = std::make_unique<Server>(manager.get(), ServerConfig());
    return server->Start();
  }
  ~Service() {
    if (server) server->Stop();
    if (manager) manager->Shutdown();
  }
};

Request SubmitRequest(const std::string& tenant, const std::string& csv,
                      bool superset, int limit, int validation_threads) {
  Request req;
  req.verb = Verb::kSubmit;
  req.tenant = tenant;
  req.db = "tpch";
  req.rout_csv = csv;
  req.options.superset = superset;
  req.options.limit = limit;
  req.options.validation_threads = validation_threads;
  return req;
}

// ---- ladder / ladder-t4 -----------------------------------------------------

struct Ladder {
  Database db;
  std::vector<WorkloadQuery> queries;
  std::vector<std::vector<AnswerKey>> refs;  // serial Reverse() per query
  std::vector<QreStats> ref_stats;
  double cold_pass_s = 0;  // the reference pass, which pays lazy builds
};

Result<std::unique_ptr<Ladder>> SetupLadder(uint64_t data_seed,
                                            const QreOptions& options) {
  auto l = std::make_unique<Ladder>();
  FASTQRE_ASSIGN_OR_RETURN(l->db,
                           BuildTpch({.scale_factor = kLadderScale,
                                      .seed = data_seed}));
  FASTQRE_ASSIGN_OR_RETURN(l->queries, StandardTpchWorkload(l->db));
  std::vector<std::vector<PJQuery>> found(l->queries.size());
  Timer cold;
  for (size_t q = 0; q < l->queries.size(); ++q) {
    std::vector<AnswerKey> answers;
    QreStats stats;
    FASTQRE_RETURN_NOT_OK(TimedRequest(l->db, l->queries[q].rout,
                                       SerialOptions(), 1, &answers, &stats,
                                       &found[q])
                              .status());
    l->refs.push_back(std::move(answers));
    l->ref_stats.push_back(stats);
  }
  l->cold_pass_s = cold.ElapsedSeconds();
  for (size_t q = 0; q < l->queries.size(); ++q) {
    if (found[q].empty()) {
      return Status::Internal(l->queries[q].name +
                              ": reference run found no query: " +
                              l->refs[q][0].text);
    }
    FASTQRE_RETURN_NOT_OK(VerifyGenerating(l->db, l->queries[q].rout, found[q],
                                           QreVariant::kExact));
  }
  // Untimed warm pass with the workload's own options.
  for (size_t q = 0; q < l->queries.size(); ++q) {
    std::vector<AnswerKey> answers;
    QreStats stats;
    FASTQRE_RETURN_NOT_OK(
        TimedRequest(l->db, l->queries[q].rout, options, 1, &answers, &stats)
            .status());
    if (!(answers == l->refs[q])) {
      return Status::Internal(l->queries[q].name +
                              ": warm pass differs from the reference");
    }
  }
  return l;
}

void RunLadder(const Args& args, int validation_threads, Outcome* out) {
  QreOptions options;
  options.validation_threads = validation_threads;

  std::vector<double> setup_s;
  std::unique_ptr<Ladder> l;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    l.reset();
    Timer timer;
    auto setup = SetupLadder(args.data_seed, options);
    if (!setup.ok()) {
      out->Check(false, "set-up failed: " + setup.status().ToString());
      return;
    }
    l = std::move(setup).ValueOrDie();
    setup_s.push_back(timer.ElapsedSeconds());
  }
  const size_t n = l->queries.size();

  // Each pass runs every query once, in an order drawn from the mix seed.
  Rng order_rng(SplitMix64(args.mix_seed));
  std::vector<size_t> order(n);
  auto next_pass = [&]() -> const std::vector<size_t>& {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    order_rng.Shuffle(&order);
    return order;
  };
  auto check = [&](size_t q, const std::vector<AnswerKey>& answers,
                   const std::string& what) {
    out->Check(answers == l->refs[q], l->queries[q].name + " " + what +
                                          " differs from the reference: " +
                                          Describe(answers));
  };

  if (!args.trace) {
    std::vector<std::vector<double>> ms(n);
    uint64_t passes = 0;
    Timer wall;
    while (wall.ElapsedSeconds() < args.seconds) {
      for (size_t q : next_pass()) {
        std::vector<AnswerKey> answers;
        QreStats stats;
        auto t = TimedRequest(l->db, l->queries[q].rout, options, 1, &answers,
                              &stats);
        if (!t.ok()) {
          out->Check(false, l->queries[q].name + ": " + t.status().ToString());
          continue;
        }
        check(q, answers, "Reverse()");
        ms[q].push_back(*t);
      }
      ++passes;
    }
    const double wall_s = wall.ElapsedSeconds();
    std::vector<double> medians, all;
    JsonValue per_query = JsonValue::Object();
    for (size_t q = 0; q < n; ++q) {
      medians.push_back(Median(ms[q]));
      per_query.Set(l->queries[q].name, JsonValue::Double(medians.back()));
      all.insert(all.end(), ms[q].begin(), ms[q].end());
    }
    out->detail.Set("passes", JsonValue::Int(static_cast<int64_t>(passes)));
    out->detail.Set("median_ms_per_query", std::move(per_query));
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("geomean_ms", Geomean(medians), "ms");
    out->Metric("top_p50_ms", Percentile(ms[kLadderTop], 0.5), "ms");
    out->Metric("top_p90_ms", Percentile(ms[kLadderTop], 0.9), "ms");
    out->Metric("jobs_per_s",
                static_cast<double>(out->attempted - out->failed) / wall_s,
                "1/s");
    // A Reverse() call's first answer is its terminal answer. The p50 is
    // the median of the per-query medians: a median over the whole stream
    // falls in the gap between two query classes and jumps between them.
    out->Metric("first_answer_p50_ms", Median(medians), "ms");
    out->Metric("first_answer_p95_ms", Percentile(all, 0.95), "ms");
    out->Metric("terminal_p50_ms", Median(medians), "ms");
    out->Metric("terminal_p95_ms", Percentile(all, 0.95), "ms");
    out->detail.Set("terminal_p99_ms",
                    JsonValue::Double(Percentile(all, 0.99)));
    out->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: per request, the untraced serial Reverse(), a Reverse()
  // with kParallelThreads validation threads (the parallel layer is traced
  // on both ladders), then the serial replay.
  QreOptions parallel_options;
  parallel_options.validation_threads = kParallelThreads;
  Trace trace;
  std::vector<std::vector<LayerSample>> samples(n);
  std::vector<std::vector<double>> serial_ms(n);
  uint64_t request = 0;
  Timer wall;
  while (wall.ElapsedSeconds() < args.seconds) {
    for (size_t q : next_pass()) {
      const WorkloadQuery& wq = l->queries[q];
      ++request;
      LayerSample sample;
      std::vector<AnswerKey> answers;
      double serial = 0;
      {
        SpanScope span(&trace, "reverse.serial", request);
        auto t = TimedRequest(l->db, wq.rout, SerialOptions(), 1, &answers,
                              &sample.stats);
        if (!t.ok()) {
          out->Check(false, wq.name + ": " + t.status().ToString());
          continue;
        }
        serial = *t;
      }
      check(q, answers, "Reverse()");
      {
        SpanScope span(&trace, "reverse.parallel", request);
        auto t = TimedRequest(l->db, wq.rout, parallel_options, 1, &answers,
                              &sample.parallel_stats);
        out->Check(t.ok() && answers == l->refs[q],
                   wq.name + " parallel Reverse() differs from the reference");
      }
      if (validation_threads > 1) sample.stats = sample.parallel_stats;
      auto replay =
          ReplayReverseAll(l->db, wq.rout, SerialOptions(), 1, &trace, request);
      if (!replay.ok()) {
        out->Check(false, wq.name + " replay: " + replay.status().ToString());
        continue;
      }
      check(q, replay->answers, "replay");
      const auto mismatched = CounterMismatches(replay->stats, l->ref_stats[q]);
      if (!mismatched.empty()) {
        out->Error(wq.name + ": replay counter differs from Reverse(): " +
                   mismatched[0]);
      }
      sample.times = replay->times;
      sample.replay_stats = replay->stats;
      sample.generating_verdicts = replay->generating_verdicts;
      sample.overhead_ms = replay->times.total_ms - serial;
      sample.extra_validations =
          static_cast<double>(
              sample.parallel_stats.candidates_validated.value()) -
          static_cast<double>(l->ref_stats[q].candidates_validated.value());
      samples[q].push_back(std::move(sample));
      serial_ms[q].push_back(serial);
    }
  }
  std::vector<LayerClass> classes;
  double steady_pass_s = 0;
  JsonValue per_query = JsonValue::Object();
  for (size_t q = 0; q < n; ++q) {
    std::vector<double> replay_ms;
    for (const LayerSample& s : samples[q]) {
      replay_ms.push_back(s.times.total_ms);
    }
    JsonValue times = JsonValue::Object();
    times.Set("untraced_ms", JsonValue::Double(Median(serial_ms[q])));
    times.Set("replay_ms", JsonValue::Double(Median(replay_ms)));
    per_query.Set(l->queries[q].name, std::move(times));
    classes.emplace_back(1.0, std::move(samples[q]));
    steady_pass_s += Median(serial_ms[q]) / 1e3;
  }
  out->detail.Set("median_ms_per_query", std::move(per_query));
  ReportLayers(classes, out);
  out->Metric("storage.warm_pass_s", l->cold_pass_s - steady_pass_s, "s");

  // The ladder does not use the wire; one loopback pass of its requests
  // measures what the service layers would add to them.
  Service service;
  const Status started = service.Start(&l->db, 1, 0);
  WireClient client;
  if (!started.ok() || !client.Connect(service.server->port())) {
    out->Error("loopback service did not start: " + started.ToString());
    return;
  }
  std::vector<WireJob> jobs;
  for (size_t q = 0; q < n; ++q) {
    const Request req =
        SubmitRequest("ladder", TableToCsv(l->queries[q].rout), false, 1,
                      validation_threads);
    WireJob job;
    const std::string err = client.RunJob(req, &job, &trace, ++request);
    out->Check(err.empty() && job.answers == l->refs[q],
               l->queries[q].name + " over the wire: " + err +
                   Describe(job.answers));
    if (err.empty()) jobs.push_back(std::move(job));
  }
  if (!jobs.empty()) ReportWire(jobs, out);
  trace.AppendJson(&out->spans);
}

// ---- service ----------------------------------------------------------------

struct JobShape {
  size_t query = 0;
  bool superset = false;
  int limit = 1;
};

struct ServiceSetup {
  Database db;
  std::vector<WorkloadQuery> queries;
  std::vector<std::string> csv;  // R_out per query, as the client sends it
  std::vector<JobShape> shapes;  // distinct job shapes of the deck
  std::vector<std::vector<AnswerKey>> refs;  // batch ReverseAll per shape
  std::vector<QreStats> ref_stats;
  std::vector<size_t> deck;  // shape index per job, in submission order
  double cold_pass_s = 0;
  Service service;
};

QreOptions ShapeOptions(const JobShape& shape) {
  QreOptions options;
  options.variant = shape.superset ? QreVariant::kSuperset : QreVariant::kExact;
  options.memory_budget_bytes = kServiceSlice;  // the job's admitted slice
  return options;
}

Result<std::unique_ptr<ServiceSetup>> SetupService(uint64_t data_seed,
                                                   uint64_t mix_seed) {
  auto s = std::make_unique<ServiceSetup>();
  FASTQRE_ASSIGN_OR_RETURN(s->db,
                           BuildTpch({.scale_factor = kServiceScale,
                                      .seed = data_seed}));
  FASTQRE_ASSIGN_OR_RETURN(s->queries, StandardTpchWorkload(s->db));
  for (const auto& q : s->queries) s->csv.push_back(TableToCsv(q.rout));

  // The job mix: ~80% exact with limit 1-3, ~20% superset with limit 1.
  Rng rng(SplitMix64(mix_seed ^ 0x5e41ce));
  std::map<std::tuple<size_t, bool, int>, size_t> index;
  for (size_t i = 0; i < kDeckSize; ++i) {
    JobShape shape;
    shape.query = kServiceQueries[rng.Uniform(std::size(kServiceQueries))];
    shape.superset = rng.Chance(0.2);
    shape.limit = shape.superset ? 1 : 1 + static_cast<int>(rng.Uniform(3));
    const auto key = std::make_tuple(shape.query, shape.superset, shape.limit);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, s->shapes.size()).first;
      s->shapes.push_back(shape);
    }
    s->deck.push_back(it->second);
  }

  std::vector<std::vector<PJQuery>> found(s->shapes.size());
  Timer cold;
  for (size_t i = 0; i < s->shapes.size(); ++i) {
    const JobShape& shape = s->shapes[i];
    std::vector<AnswerKey> answers;
    QreStats stats;
    FASTQRE_RETURN_NOT_OK(TimedRequest(s->db, s->queries[shape.query].rout,
                                       ShapeOptions(shape), shape.limit,
                                       &answers, &stats, &found[i])
                              .status());
    s->refs.push_back(std::move(answers));
    s->ref_stats.push_back(stats);
  }
  s->cold_pass_s = cold.ElapsedSeconds();
  for (size_t i = 0; i < s->shapes.size(); ++i) {
    const JobShape& shape = s->shapes[i];
    if (found[i].empty()) {
      return Status::Internal(s->queries[shape.query].name +
                              ": reference run found no query");
    }
    FASTQRE_RETURN_NOT_OK(
        VerifyGenerating(s->db, s->queries[shape.query].rout, found[i],
                         ShapeOptions(shape).variant));
  }

  FASTQRE_RETURN_NOT_OK(
      s->service.Start(&s->db, kServiceWorkers, kServiceSlice));
  // Untimed warm pass: every shape once over the wire.
  WireClient client;
  if (!client.Connect(s->service.server->port())) {
    return Status::IOError("cannot connect to the loopback service");
  }
  for (size_t i = 0; i < s->shapes.size(); ++i) {
    const JobShape& shape = s->shapes[i];
    WireJob job;
    const std::string err = client.RunJob(
        SubmitRequest("warm", s->csv[shape.query], shape.superset, shape.limit,
                      1),
        &job, nullptr, 0);
    if (!err.empty() || !(job.answers == s->refs[i])) {
      return Status::Internal("warm pass job differs from the reference: " +
                              err + Describe(job.answers));
    }
  }
  return s;
}

struct ClientResult {
  std::vector<size_t> shape;  // per completed job
  std::vector<WireJob> jobs;
  std::vector<std::string> failures;  // per failed job
  Trace trace;
};

void RunService(const Args& args, Outcome* out) {
  std::vector<double> setup_s;
  std::unique_ptr<ServiceSetup> s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    s.reset();
    Timer timer;
    auto setup = SetupService(args.data_seed, args.mix_seed);
    if (!setup.ok()) {
      out->Check(false, "set-up failed: " + setup.status().ToString());
      return;
    }
    s = std::move(setup).ValueOrDie();
    setup_s.push_back(timer.ElapsedSeconds());
  }
  out->detail.Set("distinct_job_shapes",
                  JsonValue::Int(static_cast<int64_t>(s->shapes.size())));

  std::vector<ClientResult> results(kServiceClients);
  const uint16_t port = s->service.server->port();
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& r = results[static_cast<size_t>(c)];
      WireClient client;
      bool connected = client.Connect(port);
      const std::string tenant = "client" + std::to_string(c);
      for (size_t k = static_cast<size_t>(c);
           wall.ElapsedSeconds() < args.seconds; k += kServiceClients) {
        const size_t shape_index = s->deck[k % s->deck.size()];
        const JobShape& shape = s->shapes[shape_index];
        if (!connected) connected = client.Connect(port);
        if (!connected) {
          r.failures.push_back("cannot connect");
          continue;
        }
        WireJob job;
        const std::string err = client.RunJob(
            SubmitRequest(tenant, s->csv[shape.query], shape.superset,
                          shape.limit, 1),
            &job,
            args.trace && r.jobs.size() < kTracedJobsPerClient ? &r.trace
                                                               : nullptr,
            k + 1);
        if (!err.empty()) {
          r.failures.push_back(err);
          connected = false;
          client.Close();
          continue;
        }
        if (!(job.answers == s->refs[shape_index])) {
          r.failures.push_back(s->queries[shape.query].name +
                               " job differs from the reference: " +
                               Describe(job.answers));
          continue;
        }
        r.shape.push_back(shape_index);
        r.jobs.push_back(std::move(job));
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s = wall.ElapsedSeconds();

  std::vector<WireJob> jobs;
  std::vector<size_t> job_shape;
  for (ClientResult& r : results) {
    out->attempted += r.jobs.size();
    for (const std::string& f : r.failures) out->Check(false, f);
    jobs.insert(jobs.end(), r.jobs.begin(), r.jobs.end());
    job_shape.insert(job_shape.end(), r.shape.begin(), r.shape.end());
  }

  if (!args.trace) {
    std::vector<double> first, terminal;
    std::map<size_t, std::vector<double>> by_query;
    for (size_t i = 0; i < jobs.size(); ++i) {
      first.push_back((jobs[i].first_answer_us - jobs[i].written_us) / 1e3);
      terminal.push_back((jobs[i].done_us - jobs[i].written_us) / 1e3);
      by_query[s->shapes[job_shape[i]].query].push_back(terminal.back());
    }
    std::vector<double> medians;
    JsonValue per_query = JsonValue::Object();
    for (const auto& [q, v] : by_query) {
      medians.push_back(Median(v));
      per_query.Set(s->queries[q].name, JsonValue::Double(medians.back()));
    }
    out->detail.Set("jobs", JsonValue::Int(static_cast<int64_t>(jobs.size())));
    out->detail.Set("median_terminal_ms_per_query", std::move(per_query));
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("geomean_ms", Geomean(medians), "ms");
    out->Metric("top_p50_ms", Percentile(by_query[kServiceTop], 0.5), "ms");
    out->Metric("top_p90_ms", Percentile(by_query[kServiceTop], 0.9), "ms");
    out->Metric("jobs_per_s", static_cast<double>(jobs.size()) / wall_s,
                "1/s");
    out->Metric("first_answer_p50_ms", Percentile(first, 0.5), "ms");
    out->Metric("first_answer_p95_ms", Percentile(first, 0.95), "ms");
    out->Metric("terminal_p50_ms", Percentile(terminal, 0.5), "ms");
    out->Metric("terminal_p95_ms", Percentile(terminal, 0.95), "ms");
    // p99 is recorded but not gated: queueing behind the mix's slowest jobs
    // amplifies host-speed swings, and it moved ~2x as much as p95 between
    // runs on a shared 4-vCPU host.
    out->detail.Set("first_answer_p99_ms",
                    JsonValue::Double(Percentile(first, 0.99)));
    out->detail.Set("terminal_p99_ms",
                    JsonValue::Double(Percentile(terminal, 0.99)));
    out->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run. The engine layers run inside the server's workers, out of
  // reach of the benchmark's spans, so each job shape is replayed serially
  // (three times, median) once the clients are done and weighted by its
  // share of the completed jobs.
  s->service.server->Stop();
  s->service.manager->Shutdown();
  Trace replay_trace;
  std::map<size_t, uint64_t> completed;
  for (size_t shape : job_shape) ++completed[shape];
  std::vector<LayerClass> classes;
  double steady_pass_s = 0;
  uint64_t request = 1u << 30;
  for (size_t i = 0; i < s->shapes.size(); ++i) {
    const JobShape& shape = s->shapes[i];
    const WorkloadQuery& wq = s->queries[shape.query];
    std::vector<LayerSample> samples;
    std::vector<double> untraced;
    for (int rep = 0; rep < 3; ++rep) {
      ++request;
      LayerSample sample;
      std::vector<AnswerKey> answers;
      auto t = TimedRequest(s->db, wq.rout, ShapeOptions(shape), shape.limit,
                            &answers, &sample.stats);
      out->Check(t.ok() && answers == s->refs[i],
                 wq.name + " batch run differs from the reference");
      auto replay = ReplayReverseAll(s->db, wq.rout, ShapeOptions(shape),
                                     shape.limit, &replay_trace, request);
      if (!t.ok() || !replay.ok()) {
        out->Check(false, wq.name + " replay failed");
        continue;
      }
      out->Check(replay->answers == s->refs[i],
                 wq.name + " replay differs from the reference: " +
                     Describe(replay->answers));
      const auto mismatched = CounterMismatches(replay->stats, s->ref_stats[i]);
      if (!mismatched.empty()) {
        out->Error(wq.name + ": replay counter differs from ReverseAll(): " +
                   mismatched[0]);
      }
      sample.times = replay->times;
      sample.replay_stats = replay->stats;
      sample.generating_verdicts = replay->generating_verdicts;
      sample.overhead_ms = replay->times.total_ms - *t;
      samples.push_back(std::move(sample));
      untraced.push_back(*t);
    }
    steady_pass_s += Median(untraced) / 1e3;
    classes.emplace_back(static_cast<double>(completed[i]), std::move(samples));
  }
  ReportLayers(classes, out);
  out->Metric("storage.warm_pass_s", s->cold_pass_s - steady_pass_s, "s");
  if (!jobs.empty()) ReportWire(jobs, out);
  for (const ClientResult& r : results) r.trace.AppendJson(&out->spans);
  replay_trace.AppendJson(&out->spans);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--data-seed") {
      args->data_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--mix-seed") {
      args->mix_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "ladder" || args->workload == "ladder-t4" ||
          args->workload == "service");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ladder|ladder-t4|service "
                 "[--data-seed N] [--mix-seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Outcome out;
  if (args.workload == "service") {
    RunService(args, &out);
  } else {
    RunLadder(args, args.workload == "ladder" ? 1 : kParallelThreads, &out);
  }

  if (!args.trace_out.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("workload", JsonValue::Str(args.workload));
    doc.Set("spans", std::move(out.spans));
    if (FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
      const std::string text = doc.Serialize();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      out.Error("cannot write " + args.trace_out);
    }
  }

  for (const auto& [name, m] : out.metrics.members()) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), m.GetDouble("value"),
                m.GetString("unit").c_str());
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("%-34s %14.6g\n", "failed_frac", failed_frac);
  for (const std::string& e : out.errors) {
    std::printf("error: %s\n", e.c_str());
  }

  JsonValue record = JsonValue::Object();
  record.Set("correct", JsonValue::Bool(out.correct && out.attempted > 0));
  record.Set("attempted", JsonValue::Int(static_cast<int64_t>(out.attempted)));
  record.Set("failed", JsonValue::Int(static_cast<int64_t>(out.failed)));
  record.Set("metrics", out.metrics);
  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue::Str(PERFBENCH_COMPILER));
  build.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  record.Set("build", std::move(build));
  record.Set("failed_frac", JsonValue::Double(failed_frac));
  record.Set("data_seed", JsonValue::Int(static_cast<int64_t>(args.data_seed)));
  record.Set("mix_seed", JsonValue::Int(static_cast<int64_t>(args.mix_seed)));
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : out.errors) errors.Append(JsonValue::Str(e));
  record.Set("errors", std::move(errors));
  record.Set("detail", std::move(out.detail));
  std::printf("%s\n", record.Serialize().c_str());
  return out.correct && out.attempted > 0 ? 0 : 1;
}
