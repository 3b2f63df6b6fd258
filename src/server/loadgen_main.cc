// net_loadgen: closed-loop load generator for a running taggd.
//
// Spawns N connections, each pipelining D requests at a time (a mix of
// inserts and point queries against the demo `events` relation), for a
// fixed duration.  Prints a one-line JSON summary to stdout:
//
//   {"connections":4,"pipeline":8,"seconds":2.0,"requests":123456,
//    "qps":61728.0,"batch_p50_us":130.0,"batch_p99_us":410.0,"errors":0}
//
// After the load phase it fetches the server's Prometheus exposition and
// asserts the serving counters moved — the CI smoke step relies on this
// (a server that answered nothing exits nonzero here, not in a grep).
//
//   ./build/src/net_loadgen --port 7034 --connections 4 --pipeline 8 \
//       --seconds 2 --insert-fraction 0.5

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "temporal/value.h"
#include "util/str.h"

namespace {

using tagg::Instant;
using tagg::Result;
using tagg::Status;
using tagg::StatusCode;
using tagg::Value;

constexpr Instant kLifespan = 1'000'000;
constexpr uint8_t kCountAggregate = 0;

struct LoadgenOptions {
  uint16_t port = 7034;
  size_t connections = 4;
  size_t pipeline = 8;
  double seconds = 2.0;
  double insert_fraction = 0.5;
  std::string relation = "events";
};

struct WorkerResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  std::vector<double> batch_micros;  // latency of each pipelined batch
};

void RunWorker(const LoadgenOptions& options, size_t worker_index,
               WorkerResult* out) {
  Result<tagg::net::Client> client =
      tagg::net::Client::ConnectTo(options.port);
  if (!client.ok()) {
    std::fprintf(stderr, "net_loadgen: connect: %s\n",
                 client.status().ToString().c_str());
    out->errors += 1;
    return;
  }
  // Deterministic per-worker op schedule: every k-th request in a batch
  // is an insert when k/D < insert_fraction (no RNG needed to hold the
  // mix, and reruns are comparable).
  const size_t inserts_per_batch = static_cast<size_t>(
      options.insert_fraction * static_cast<double>(options.pipeline));
  Instant t = 9973 * static_cast<Instant>(worker_index + 1);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options.seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto batch_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < options.pipeline; ++i) {
      Status sent;
      if (i < inserts_per_batch) {
        sent = client->Send(
            tagg::net::Opcode::kInsert,
            tagg::net::EncodeInsert(
                {options.relation,
                 {t % kLifespan, t % kLifespan + 10,
                  {Value::Double(1.0)}}}));
      } else {
        sent = client->Send(
            tagg::net::Opcode::kAggregateAt,
            tagg::net::EncodeAggregateAt(
                {options.relation, kCountAggregate,
                 tagg::net::kWireNoAttribute, t % kLifespan}));
      }
      if (!sent.ok()) {
        out->errors += 1;
        return;  // the connection is gone; stop this worker
      }
      t += 9973;
    }
    for (size_t i = 0; i < options.pipeline; ++i) {
      Result<tagg::net::RawResponse> got = client->Receive();
      if (!got.ok()) {
        out->errors += 1;
        return;
      }
      if (got->code != StatusCode::kOk) out->errors += 1;
      out->requests += 1;
    }
    out->batch_micros.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - batch_start)
            .count());
  }
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// One cumulative histogram bucket parsed off the exposition text.
struct HistBucket {
  double le = 0.0;  // upper bound in seconds; +Inf for the last
  uint64_t cumulative = 0;
};

/// Parses the `<name>_bucket{le="..."} N` sample lines of one histogram
/// family out of a Prometheus text exposition.
std::vector<HistBucket> ParseHistogramBuckets(const std::string& text,
                                              const std::string& name) {
  std::vector<HistBucket> buckets;
  const std::string key = name + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    if (pos != 0 && text[pos - 1] != '\n') {  // HELP/TYPE line mentions
      pos += key.size();
      continue;
    }
    const size_t le_start = pos + key.size();
    const size_t le_end = text.find('"', le_start);
    if (le_end == std::string::npos) break;
    const std::string le = text.substr(le_start, le_end - le_start);
    HistBucket b;
    b.le = le == "+Inf" ? std::numeric_limits<double>::infinity()
                        : std::strtod(le.c_str(), nullptr);
    const size_t value_at = text.find(' ', le_end);
    if (value_at == std::string::npos) break;
    b.cumulative = static_cast<uint64_t>(
        std::strtoull(text.c_str() + value_at + 1, nullptr, 10));
    buckets.push_back(b);
    pos = le_end;
  }
  return buckets;
}

/// Interpolated percentile (microseconds) from a delta of two cumulative
/// bucket snapshots — the standard Prometheus histogram_quantile math.
double BucketPercentileMicros(const std::vector<HistBucket>& before,
                              const std::vector<HistBucket>& after,
                              double p) {
  if (after.empty() || before.size() != after.size()) return 0.0;
  std::vector<uint64_t> delta(after.size());
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i].cumulative -
               std::min(before[i].cumulative, after[i].cumulative);
  }
  const uint64_t total = delta.back();
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  for (size_t i = 0; i < delta.size(); ++i) {
    if (static_cast<double>(delta[i]) < rank) continue;
    const double hi = after[i].le;
    if (std::isinf(hi)) {
      // Open-ended bucket: report its lower bound, like Prometheus.
      return i == 0 ? 0.0 : after[i - 1].le * 1e6;
    }
    const double lo = i == 0 ? 0.0 : after[i - 1].le;
    const uint64_t below = i == 0 ? 0 : delta[i - 1];
    const uint64_t in_bucket = delta[i] - below;
    if (in_bucket == 0) return hi * 1e6;
    const double frac =
        (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
    return (lo + (hi - lo) * frac) * 1e6;
  }
  return after.back().le * 1e6;
}

/// Fetches the full exposition text over the binary protocol; empty on
/// any failure (the queue-wait decomposition then reports zeros).
std::string FetchMetricsText(uint16_t port) {
  Result<tagg::net::Client> client = tagg::net::Client::ConnectTo(port);
  if (!client.ok()) return std::string();
  Result<std::string> metrics = client->Metrics();
  return metrics.ok() ? *metrics : std::string();
}

/// Post-load check: the serving counters in the Prometheus exposition
/// must reflect the work just sent.
int CheckMetrics(const LoadgenOptions& options, uint64_t requests) {
  Result<tagg::net::Client> client =
      tagg::net::Client::ConnectTo(options.port);
  if (!client.ok()) {
    std::fprintf(stderr, "net_loadgen: metrics connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  Result<std::string> metrics = client->Metrics();
  if (!metrics.ok()) {
    std::fprintf(stderr, "net_loadgen: metrics fetch: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  for (const char* needle :
       {"tagg_server_requests_total", "tagg_net_connections_total",
        "tagg_server_request_seconds"}) {
    if (metrics->find(needle) == std::string::npos) {
      std::fprintf(stderr, "net_loadgen: exposition missing %s\n", needle);
      return 1;
    }
  }
  // The requests counter must be at least what this process sent.  The
  // sample line is matched at a line start so the '# HELP' line naming
  // the same metric cannot shadow it.
  const std::string key = "\ntagg_server_requests_total ";
  const size_t pos = metrics->find(key);
  if (pos == std::string::npos) {
    std::fprintf(stderr, "net_loadgen: no requests_total sample line\n");
    return 1;
  }
  const uint64_t reported = static_cast<uint64_t>(
      std::strtoull(metrics->c_str() + pos + key.size(), nullptr, 10));
  if (reported < requests) {
    std::fprintf(stderr,
                 "net_loadgen: server reports %llu requests, sent %llu\n",
                 static_cast<unsigned long long>(reported),
                 static_cast<unsigned long long>(requests));
    return 1;
  }
  std::fprintf(stderr, "net_loadgen: tagg_server_requests_total %llu\n",
               static_cast<unsigned long long>(reported));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Checked flag parsing, taggd-style: atoi silently turned garbage
    // into 0 and "70000" into a wrapped port; reject both with a usage
    // error instead.
    auto next_int = [&](int64_t max_value) {
      tagg::Result<int64_t> v = tagg::ParseInt(next(), 0, max_value);
      if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     std::string(v.status().message()).c_str());
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--port") {
      options.port = static_cast<uint16_t>(next_int(65535));
    } else if (arg == "--connections") {
      options.connections = static_cast<size_t>(next_int(4096));
    } else if (arg == "--pipeline") {
      options.pipeline = static_cast<size_t>(next_int(1 << 20));
    } else if (arg == "--seconds") {
      options.seconds = std::atof(next());
    } else if (arg == "--insert-fraction") {
      options.insert_fraction = std::atof(next());
    } else if (arg == "--relation") {
      options.relation = next();
    } else {
      std::fprintf(
          stderr,
          "usage: %s --port N [--connections N] [--pipeline D]\n"
          "          [--seconds S] [--insert-fraction F] [--relation R]\n",
          argv[0]);
      return 2;
    }
  }
  options.connections = std::max<size_t>(1, options.connections);
  options.pipeline = std::max<size_t>(1, options.pipeline);

  // Snapshot the server-side queue-wait histogram before the load so the
  // JSON line can report the delta attributable to this run.
  const std::string kQueueWait = "tagg_executor_queue_wait_seconds";
  const std::vector<HistBucket> qw_before =
      ParseHistogramBuckets(FetchMetricsText(options.port), kQueueWait);

  std::vector<WorkerResult> results(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < options.connections; ++i) {
    workers.emplace_back(RunWorker, options, i, &results[i]);
  }
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  uint64_t requests = 0;
  uint64_t errors = 0;
  std::vector<double> batches;
  for (const WorkerResult& r : results) {
    requests += r.requests;
    errors += r.errors;
    batches.insert(batches.end(), r.batch_micros.begin(),
                   r.batch_micros.end());
  }
  std::sort(batches.begin(), batches.end());

  // Server-side queue-wait decomposition: how much of the batch latency
  // above was spent waiting for an executor worker.
  const std::vector<HistBucket> qw_after =
      ParseHistogramBuckets(FetchMetricsText(options.port), kQueueWait);
  uint64_t qw_samples = 0;
  if (!qw_after.empty() && qw_after.size() == qw_before.size()) {
    qw_samples = qw_after.back().cumulative - qw_before.back().cumulative;
  } else if (!qw_after.empty() && qw_before.empty()) {
    qw_samples = qw_after.back().cumulative;
  }
  const std::vector<HistBucket> qw_base =
      qw_before.size() == qw_after.size() ? qw_before
                                          : std::vector<HistBucket>(
                                                qw_after.size(), HistBucket{});
  std::printf(
      "{\"connections\":%zu,\"pipeline\":%zu,\"seconds\":%.3f,"
      "\"requests\":%llu,\"qps\":%.1f,\"batch_p50_us\":%.1f,"
      "\"batch_p99_us\":%.1f,\"queue_wait_p50_us\":%.1f,"
      "\"queue_wait_p99_us\":%.1f,\"queue_wait_samples\":%llu,"
      "\"errors\":%llu}\n",
      options.connections, options.pipeline, elapsed,
      static_cast<unsigned long long>(requests),
      elapsed > 0 ? static_cast<double>(requests) / elapsed : 0.0,
      Percentile(batches, 0.50), Percentile(batches, 0.99),
      BucketPercentileMicros(qw_base, qw_after, 0.50),
      BucketPercentileMicros(qw_base, qw_after, 0.99),
      static_cast<unsigned long long>(qw_samples),
      static_cast<unsigned long long>(errors));

  if (requests == 0 || errors != 0) {
    std::fprintf(stderr, "net_loadgen: %llu requests, %llu errors\n",
                 static_cast<unsigned long long>(requests),
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return CheckMetrics(options, requests);
}
