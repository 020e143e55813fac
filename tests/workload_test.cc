#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "workload/service_time.h"
#include "workload/workload.h"

namespace draconis::workload {
namespace {

// A default spec driven by `arrival`.
WorkloadSpec Spec(ArrivalKind arrival) {
  WorkloadSpec spec;
  spec.arrival = arrival;
  return spec;
}

// --- ServiceTime -------------------------------------------------------------

TEST(ServiceTimeTest, FixedAlwaysSame) {
  ServiceTime st = ServiceTime::Fixed(FromMicros(250));
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(st.Sample(rng), FromMicros(250));
  }
  EXPECT_EQ(st.Mean(), FromMicros(250));
}

TEST(ServiceTimeTest, BimodalHitsBothModes) {
  ServiceTime st = ServiceTime::PaperBimodal();
  Rng rng(2);
  std::map<TimeNs, int> counts;
  for (int i = 0; i < 10000; ++i) {
    counts[st.Sample(rng)]++;
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(counts[FromMicros(100)], 5000, 300);
  EXPECT_NEAR(counts[FromMicros(500)], 5000, 300);
  EXPECT_EQ(st.Mean(), FromMicros(300));
}

TEST(ServiceTimeTest, TrimodalEvenThirds) {
  ServiceTime st = ServiceTime::PaperTrimodal();
  Rng rng(3);
  std::map<TimeNs, int> counts;
  for (int i = 0; i < 30000; ++i) {
    counts[st.Sample(rng)]++;
  }
  ASSERT_EQ(counts.size(), 3u);
  for (auto& [value, n] : counts) {
    EXPECT_NEAR(n, 10000, 600) << FormatDuration(value);
  }
}

TEST(ServiceTimeTest, ExponentialMeanMatches) {
  ServiceTime st = ServiceTime::PaperExponential();
  Rng rng(4);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    ASSERT_GT(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(250)), FromMicros(3));
}

TEST(ServiceTimeTest, LognormalMeanMatches) {
  ServiceTime st = ServiceTime::Lognormal(FromMicros(500), 1.2);
  Rng rng(5);
  double sum = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(st.Sample(rng));
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(500)), FromMicros(15));
}

TEST(ServiceTimeTest, LabelsAreInformative) {
  EXPECT_NE(ServiceTime::PaperBimodal().label().find("bimodal"), std::string::npos);
  EXPECT_NE(ServiceTime::Fixed(FromMicros(100)).label().find("fixed"), std::string::npos);
}

// --- Open-loop generator -------------------------------------------------------

TEST(OpenLoopTest, RateIsRespected) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(500);
  spec.seed = 6;
  JobStream stream = spec.Generate();
  const double rate = static_cast<double>(TotalTasks(stream)) / ToSeconds(spec.duration);
  EXPECT_NEAR(rate, 200000.0, 6000.0);
}

TEST(OpenLoopTest, ArrivalsSortedWithinDuration) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(50);
  JobStream stream = spec.Generate();
  ASSERT_FALSE(stream.empty());
  TimeNs prev = 0;
  for (const JobArrival& job : stream) {
    EXPECT_GE(job.at, prev);
    EXPECT_LT(job.at, spec.duration);
    prev = job.at;
  }
}

TEST(OpenLoopTest, BatchedJobs) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.tasks_per_job = 10;
  spec.duration = FromMillis(20);
  JobStream stream = spec.Generate();
  for (const JobArrival& job : stream) {
    EXPECT_EQ(job.tasks.size(), 10u);
  }
}

TEST(OpenLoopTest, Deterministic) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.seed = 77;
  spec.duration = FromMillis(10);
  JobStream a = spec.Generate();
  JobStream b = spec.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
  }
}

TEST(OpenLoopTest, TotalWorkMatchesMeanService) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.tasks_per_second = 100000.0;
  spec.duration = FromMillis(200);
  spec.service = ServiceTime::Fixed(FromMicros(100));
  JobStream stream = spec.Generate();
  EXPECT_EQ(TotalWork(stream),
            static_cast<TimeNs>(TotalTasks(stream)) * FromMicros(100));
}

// --- Taggers -------------------------------------------------------------------

TEST(TaggerTest, LocalityCoversAllNodesRoughlyEvenly) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(200);
  spec.tasks_per_second = 100000.0;
  spec.taggers.push_back(TaggerStage::Locality(10, 9));
  JobStream stream = spec.Generate();
  std::map<uint32_t, int> counts;
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      ASSERT_LT(task.tprops, 10u);
      counts[task.tprops]++;
    }
  }
  EXPECT_EQ(counts.size(), 10u);
  const double expected = static_cast<double>(TotalTasks(stream)) / 10;
  for (auto& [node, n] : counts) {
    EXPECT_NEAR(n, expected, expected * 0.15);
  }
}

TEST(TaggerTest, PriorityMixMatchesFractions) {
  WorkloadSpec spec = Spec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(400);
  spec.tasks_per_second = 100000.0;
  spec.taggers.push_back(TaggerStage::Priority(PaperPriorityMix(), 4));
  JobStream stream = spec.Generate();
  std::map<uint32_t, double> counts;
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      counts[task.tprops]++;
    }
  }
  const double total = static_cast<double>(TotalTasks(stream));
  // The paper's 12->4 mapping: 1.2% / 1.7% / 64.6% / 32.2%.
  EXPECT_NEAR(counts[1] / total, 0.012, 0.004);
  EXPECT_NEAR(counts[2] / total, 0.017, 0.004);
  EXPECT_NEAR(counts[3] / total, 0.646, 0.02);
  EXPECT_NEAR(counts[4] / total, 0.322, 0.02);
}

// --- Resource phases -------------------------------------------------------------

TEST(ResourcePhasesTest, ThreePhasesWithEscalatingBits) {
  WorkloadSpec spec = Spec(ArrivalKind::kPhased);
  spec.phase_duration = FromMillis(100);
  spec.tasks_per_second = 50000.0;
  spec.service = ServiceTime::Fixed(FromMillis(10));
  JobStream stream = spec.Generate();
  ASSERT_FALSE(stream.empty());
  for (const JobArrival& job : stream) {
    const auto phase = static_cast<uint32_t>(job.at / spec.phase_duration);
    ASSERT_LT(phase, 3u);
    EXPECT_EQ(job.tasks.at(0).tprops, 1u << phase);
  }
  EXPECT_LT(stream.back().at, 3 * spec.phase_duration);
}

// --- Google-like trace -------------------------------------------------------------

TEST(GoogleTraceTest, MeanRateAndDuration) {
  WorkloadSpec spec = Spec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.seed = 12;
  JobStream stream = spec.Generate();
  const double rate = static_cast<double>(TotalTasks(stream)) / 1.0;
  EXPECT_NEAR(rate, 100000.0, 15000.0);
}

TEST(GoogleTraceTest, TaskDurationsAverageToTarget) {
  WorkloadSpec spec = Spec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.mean_task_duration = FromMicros(500);
  spec.seed = 13;
  JobStream stream = spec.Generate();
  const double mean =
      static_cast<double>(TotalWork(stream)) / static_cast<double>(TotalTasks(stream));
  EXPECT_NEAR(mean, static_cast<double>(FromMicros(500)), FromMicros(40));
}

TEST(GoogleTraceTest, IsBursty) {
  WorkloadSpec spec = Spec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.max_job_size = 300;
  spec.seed = 14;
  JobStream stream = spec.Generate();
  size_t biggest = 0;
  for (const auto& job : stream) {
    biggest = std::max(biggest, job.tasks.size());
  }
  // "may submit hundreds of tasks at once"
  EXPECT_GE(biggest, 100u);
  EXPECT_LE(biggest, 300u);
}

TEST(GoogleTraceTest, PriorityTaggingOptional) {
  WorkloadSpec spec = Spec(ArrivalKind::kGoogleTrace);
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(200);
  spec.priority_levels = 4;
  spec.seed = 15;
  JobStream stream = spec.Generate();
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      ASSERT_GE(task.tprops, 1u);
      ASSERT_LE(task.tprops, 4u);
    }
  }
}

// --- Heavy-tailed service times ------------------------------------------------

TEST(ServiceTimeTest, ParetoMeanMatchesWhenVarianceIsFinite) {
  // alpha = 2.5 keeps the variance finite so the sample mean converges at a
  // testable rate; the heavy alpha = 1.3 regime is covered by the tail-index
  // test below (its sample mean converges far too slowly to pin).
  ServiceTime st = ServiceTime::Pareto(FromMicros(250), 2.5);
  EXPECT_EQ(st.Mean(), FromMicros(250));
  Rng rng(21);
  double sum = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    ASSERT_GT(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(250)), FromMicros(10));
}

TEST(ServiceTimeTest, ParetoTailIndexMatchesAlpha) {
  // For Pareto, Q(0.99) / Q(0.90) = 10^(1/alpha) exactly — a quantile-ratio
  // estimate of the tail index that stays stable where the sample mean does
  // not. alpha = 1.3 gives 10^(1/1.3) ~= 5.88.
  ServiceTime st = ServiceTime::Pareto(FromMicros(250), 1.3);
  Rng rng(22);
  constexpr int kN = 400000;
  std::vector<double> samples(kN);
  for (int i = 0; i < kN; ++i) {
    samples[i] = static_cast<double>(st.Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  const double q90 = samples[static_cast<size_t>(kN * 0.90)];
  const double q99 = samples[static_cast<size_t>(kN * 0.99)];
  const double expected = std::pow(10.0, 1.0 / 1.3);
  EXPECT_NEAR(q99 / q90, expected, expected * 0.15);
}

TEST(ServiceTimeTest, HeavyTailInflatesTheRightFraction) {
  ServiceTime st = ServiceTime::HeavyTail(ServiceTime::Fixed(FromMicros(100)), 0.01, 10.0);
  // Mean folds in the inflated mass: 100us * (1 + 0.01 * (10 - 1)) = 109us.
  EXPECT_EQ(st.Mean(), FromMicros(109));
  Rng rng(23);
  int inflated = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    if (v == FromMillis(1)) {
      ++inflated;
    } else {
      ASSERT_EQ(v, FromMicros(100));
    }
  }
  EXPECT_NEAR(static_cast<double>(inflated) / kN, 0.01, 0.002);
}

TEST(ServiceTimeTest, NamesRoundTripThroughFromName) {
  const std::vector<ServiceTime> models = {
      ServiceTime::Fixed(FromMicros(500)),
      ServiceTime::PaperBimodal(),
      ServiceTime::PaperTrimodal(),
      ServiceTime::PaperExponential(),
      ServiceTime::Lognormal(FromMicros(500), 1.2),
      ServiceTime::Pareto(FromMicros(250), 1.3),
      ServiceTime::HeavyTail(ServiceTime::PaperBimodal(), 0.01, 10.0),
  };
  for (const ServiceTime& model : models) {
    SCOPED_TRACE(model.Name());
    ServiceTime parsed = ServiceTime::Fixed(1);
    std::string error;
    ASSERT_TRUE(ServiceTime::FromName(model.Name(), &parsed, &error)) << error;
    EXPECT_EQ(parsed.Name(), model.Name());
    EXPECT_EQ(parsed.Mean(), model.Mean());
    // Same seed, same draws: the parsed model is the same distribution.
    Rng a(31), b(31);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(model.Sample(a), parsed.Sample(b));
    }
  }
}

TEST(ServiceTimeTest, FromNameRejectsMalformedNames) {
  ServiceTime out = ServiceTime::Fixed(1);
  std::string error;
  EXPECT_FALSE(ServiceTime::FromName("pareto:250us:0.9", &out, &error));  // alpha <= 1
  EXPECT_FALSE(ServiceTime::FromName("heavytail:2:10:bimodal", &out, &error));  // prob > 1
  EXPECT_FALSE(ServiceTime::FromName("nonsense", &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- Declarative workload specs ------------------------------------------------

void ExpectStreamsEqual(const JobStream& a, const JobStream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at, b[i].at);
    ASSERT_EQ(a[i].tasks.size(), b[i].tasks.size());
    for (size_t t = 0; t < a[i].tasks.size(); ++t) {
      ASSERT_EQ(a[i].tasks[t].duration, b[i].tasks[t].duration);
      ASSERT_EQ(a[i].tasks[t].tprops, b[i].tasks[t].tprops);
    }
  }
}

TEST(WorkloadSpecTest, GenerateIsDeterministic) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 150000.0;
  spec.duration = FromMillis(20);
  spec.tasks_per_job = 10;
  spec.service = ServiceTime::PaperBimodal();
  spec.seed = 91;
  spec.taggers.push_back(TaggerStage::Locality(10, 17));
  ExpectStreamsEqual(spec.Generate(), spec.Generate());
}

TEST(WorkloadSpecTest, JsonRoundTripReproducesTheSpec) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kGoogleTrace;
  spec.tasks_per_second = 240000.0;
  spec.duration = FromMillis(80);
  spec.mean_task_duration = FromMicros(500);
  spec.duration_sigma = 1.2;
  spec.burst_alpha = 1.3;
  spec.max_job_size = 400;
  spec.priority_levels = 4;
  spec.seed = 7;
  spec.taggers.push_back(TaggerStage::Deadline(3.0, 200, 11));
  spec.taggers.push_back(TaggerStage::Tenant(2, 12));

  const std::string text = spec.ToJson();
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &value, &error)) << error;
  WorkloadSpec parsed;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToJson(), text);
  ExpectStreamsEqual(parsed.Generate(), spec.Generate());
}

TEST(WorkloadSpecTest, OpenLoopJsonRoundTripKeepsServiceModel) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.service = ServiceTime::HeavyTail(ServiceTime::Pareto(FromMicros(250), 1.3),
                                        0.01, 10.0);
  spec.duration = FromMillis(10);
  spec.taggers.push_back(TaggerStage::Locality(9, 23));

  const std::string text = spec.ToJson();
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &value, &error)) << error;
  WorkloadSpec parsed;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.service.Name(), spec.service.Name());
  EXPECT_EQ(parsed.ToJson(), text);
}

TEST(WorkloadSpecTest, FromJsonRejectsNonIntegralAndOutOfRangeIntegers) {
  struct Case {
    const char* text;
    const char* expected_error;  // substring
  };
  const std::vector<Case> cases = {
      {R"({"arrival": "open-loop", "tasks_per_job": -1})",
       "workload: tasks_per_job must be an integer in [0, 4294967295]"},
      {R"({"arrival": "google-trace", "max_job_size": -1})",
       "workload: max_job_size must be an integer in [0, 4294967295]"},
      {R"({"arrival": "open-loop", "duration_ns": 1.5})",
       "workload: duration_ns must be an integer"},
      {R"({"arrival": "open-loop", "seed": 1e19})", "workload: seed must be an integer"},
      {R"({"arrival": "open-loop", "seed": -1})", "workload: seed must be an integer"},
      {R"({"arrival": "open-loop",
           "taggers": [{"stage": "locality", "num_nodes": 4294967296, "seed": 1}]})",
       "locality tagger: num_nodes must be an integer"},
      {R"({"arrival": "open-loop",
           "taggers": [{"stage": "deadline", "slack": 3, "jitter_us": 0.5, "seed": 1}]})",
       "deadline tagger: jitter_us must be an integer"},
      {R"({"arrival": "open-loop", "taggers": [{"stage": "tenant", "num_tenants": 2,
           "seed": -1}]})",
       "tagger: seed must be an integer"},
  };
  for (const Case& c : cases) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(c.text, &value, &error)) << error;
    WorkloadSpec parsed;
    bool ok = true;
    EXPECT_NO_THROW(ok = WorkloadSpec::FromJson(value, &parsed, &error)) << c.text;
    EXPECT_FALSE(ok) << c.text;
    EXPECT_NE(error.find(c.expected_error), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

struct BadSpecCase {
  std::string text;
  std::string expected_error;  // substring
};

void ExpectRejected(const std::vector<BadSpecCase>& cases) {
  for (const BadSpecCase& c : cases) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(c.text, &value, &error)) << error;
    WorkloadSpec parsed;
    EXPECT_FALSE(WorkloadSpec::FromJson(value, &parsed, &error)) << c.text;
    EXPECT_NE(error.find(c.expected_error), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

// A present number member must be a number: "1e5" as a string used to run
// at the default rate.
TEST(WorkloadSpecTest, FromJsonRejectsWrongTypedNumbers) {
  std::vector<BadSpecCase> cases;
  for (const std::string key : {"tasks_per_second", "duration_sigma", "burst_alpha"}) {
    cases.push_back({R"({"arrival": "google-trace", ")" + key + R"(": "1e5"})",
                     "workload: " + key + " must be a number"});
  }
  cases.push_back({R"({"arrival": "open-loop",
                       "taggers": [{"stage": "deadline", "slack": "3", "jitter_us": 0,
                                    "seed": 1}]})",
                   "deadline tagger: slack must be a number"});
  ExpectRejected(cases);
}

// Every member a reader does not know is an error, typos included; a tagger
// rejects another stage's parameters too.
TEST(WorkloadSpecTest, FromJsonRejectsUnknownKeys) {
  ExpectRejected({
      {R"({"arrival": "open-loop", "tasks_per_secnd": 1e5})",
       R"(workload has unknown key "tasks_per_secnd")"},
      {R"({"arrival": "open-loop",
           "taggers": [{"stage": "deadline", "slak": 2, "jitter_us": 0, "seed": 1}]})",
       "deadline tagger: slack is missing"},
      {R"({"arrival": "open-loop",
           "taggers": [{"stage": "deadline", "slack": 2, "slak": 2, "jitter_us": 0,
                        "seed": 1}]})",
       R"(deadline tagger has unknown key "slak")"},
      {R"({"arrival": "open-loop",
           "taggers": [{"stage": "locality", "num_nodes": 2, "slack": 3, "seed": 1}]})",
       R"(locality tagger has unknown key "slack")"},
      {R"({"arrival": "open-loop", "taggers": [{"stage": "colour", "seed": 1}]})",
       "tagger: stage must be one of locality|priority|deadline|tenant"},
      {R"({"arrival": "bursty"})", "workload: arrival must be one of open-loop|phased|google-trace"},
  });
}

TEST(WorkloadSpecTest, FromJsonReadsNamesCaseInsensitively) {
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(R"({"arrival": "Open-Loop", "duration_ns": 1000000,
                              "taggers": [{"stage": "LOCALITY", "num_nodes": 3, "seed": 1}]})",
                          &value, &error))
      << error;
  WorkloadSpec parsed;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.arrival, ArrivalKind::kOpenLoop);
  ASSERT_EQ(parsed.taggers.size(), 1u);
  EXPECT_EQ(parsed.taggers[0].kind, TaggerStage::Kind::kLocality);
  ASSERT_TRUE(json::Parse(R"({"arrival": "none"})", &value, &error)) << error;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_FALSE(parsed.enabled());
}

TEST(WorkloadSpecTest, FromNameSelectsTheArrivalProcess) {
  WorkloadSpec spec;
  std::string error;
  ASSERT_TRUE(WorkloadSpec::FromName("open-loop", &spec, &error)) << error;
  EXPECT_EQ(spec.arrival, ArrivalKind::kOpenLoop);
  ASSERT_TRUE(WorkloadSpec::FromName("google-trace", &spec, &error)) << error;
  EXPECT_EQ(spec.arrival, ArrivalKind::kGoogleTrace);
  EXPECT_FALSE(WorkloadSpec::FromName("mapreduce", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WorkloadSpecTest, ValidateCatchesBadSpecs) {
  WorkloadSpec spec;
  EXPECT_EQ(spec.Validate(), "");  // kNone is always valid
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.0;
  EXPECT_NE(spec.Validate(), "");
  spec.tasks_per_second = 1000.0;
  EXPECT_EQ(spec.Validate(), "");
  spec.taggers.push_back(TaggerStage::Locality(0, 1));  // zero nodes
  EXPECT_NE(spec.Validate(), "");
}

// --- Exact-stream pins -----------------------------------------------------------

// Job count, task count and an FNV-1a hash over every task's
// (arrival, duration, tprops, fn_id), folded little-endian one byte at a time.
struct StreamFingerprint {
  size_t jobs = 0;
  size_t tasks = 0;
  uint64_t hash = 0xcbf29ce484222325ull;
};

StreamFingerprint Fingerprint(const JobStream& stream) {
  StreamFingerprint fp;
  const auto fold = [&fp](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      fp.hash ^= (value >> (8 * byte)) & 0xffu;
      fp.hash *= 0x100000001b3ull;
    }
  };
  fp.jobs = stream.size();
  for (const JobArrival& job : stream) {
    for (const TaskSpec& task : job.tasks) {
      ++fp.tasks;
      fold(static_cast<uint64_t>(job.at));
      fold(static_cast<uint64_t>(task.duration));
      fold(task.tprops);
      fold(task.fn_id);
    }
  }
  return fp;
}

void ExpectFingerprint(const WorkloadSpec& spec, size_t jobs, size_t tasks, uint64_t hash) {
  const StreamFingerprint fp = Fingerprint(spec.Generate());
  EXPECT_EQ(fp.jobs, jobs);
  EXPECT_EQ(fp.tasks, tasks);
  EXPECT_EQ(fp.hash, hash) << "0x" << std::hex << fp.hash;
}

// Pinned streams: any change to an arrival engine, a tagger, or the order of
// their RNG draws shows up here before it reaches a simulation golden.
TEST(WorkloadPinTest, OpenLoopWithLocalityAndPriorityTaggers) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 120000.0;
  spec.duration = FromMillis(25);
  spec.tasks_per_job = 10;
  spec.service = ServiceTime::PaperTrimodal();
  spec.seed = 42;
  spec.taggers.push_back(TaggerStage::Locality(10, 17));
  spec.taggers.push_back(TaggerStage::Priority(PaperPriorityMix(), 18));
  ExpectFingerprint(spec, 271, 2710, 0xa83671f95ace825aull);
}

TEST(WorkloadPinTest, Phased) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kPhased;
  spec.tasks_per_second = 50000.0;
  spec.phase_duration = FromMillis(10);
  spec.service = ServiceTime::PaperBimodal();
  spec.seed = 5;
  ExpectFingerprint(spec, 1459, 1459, 0xa42343c6937e9541ull);
}

TEST(WorkloadPinTest, GoogleTraceWithPriorityLevels) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kGoogleTrace;
  spec.tasks_per_second = 80000.0;
  spec.duration = FromMillis(300);
  spec.mean_task_duration = FromMicros(500);
  spec.priority_levels = 4;
  spec.seed = 2024;
  ExpectFingerprint(spec, 7514, 24546, 0xd49c60dc19d76f0cull);
}

TEST(WorkloadPinTest, HeavyTailOpenLoopWithDeadlineAndTenantTaggers) {
  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 100000.0;
  spec.duration = FromMillis(20);
  spec.tasks_per_job = 4;
  spec.service = ServiceTime::HeavyTail(ServiceTime::Pareto(FromMicros(250), 1.3), 0.01, 10.0);
  spec.seed = 99;
  spec.taggers.push_back(TaggerStage::Deadline(3.0, 200, 11));
  spec.taggers.push_back(TaggerStage::Tenant(3, 12));
  ExpectFingerprint(spec, 483, 1932, 0x0f3ace2cf37ba581ull);
}

}  // namespace
}  // namespace draconis::workload
