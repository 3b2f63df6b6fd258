// taggd: the temporal-aggregate serving daemon.
//
// Binds 127.0.0.1:<port> and serves the binary protocol plus the
// taggsql text mode (docs/SERVING.md).  Relations come from CSV files
// (the taggsql layout: value columns + valid_start/valid_end); with no
// --csv a demo relation `events(value double)` is created so the server
// is usable out of the box:
//
//   ./build/src/taggd --port 7034
//   ./build/src/taggd --csv data/employed.csv
//       --index employed/count --index employed/sum/salary
//
// SIGTERM/SIGINT trigger the graceful drain: stop accepting, finish
// in-flight requests, publish a final live-index flush, exit 0.

#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"
#include "shard/sharded_service.h"
#include "temporal/csv.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/str.h"

namespace {

constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMaxPort = 65535;
constexpr int64_t kMaxMicros = kNoMax / 1000;  // converted to ns

volatile std::sig_atomic_t g_shutdown = 0;

void OnSignal(int) { g_shutdown = 1; }

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N               listen port (default 7034, 0 = ephemeral)\n"
      "  --loops N              event-loop threads (default 2)\n"
      "  --workers N            executor worker threads (default 4)\n"
      "  --queue N              executor queue capacity (default 256)\n"
      "  --idle-timeout-ms N    disconnect idle clients (default 0 = off)\n"
      "  --rate-limit R         per-connection requests/sec (default off)\n"
      "  --rate-burst B         token-bucket burst (default = rate)\n"
      "  --admin-port N         HTTP admin listener (default 7035,\n"
      "                         0 = ephemeral; see --no-admin)\n"
      "  --no-admin             disable the admin plane\n"
      "  --enable-quitz         allow GET /quitz to trigger shutdown\n"
      "  --trace-sample-every N server-sample every Nth request per loop\n"
      "                         (default 0 = off, or TAGG_TRACE_SAMPLE_EVERY)\n"
      "  --slow-request-us N    log+record requests slower than N us\n"
      "                         (default 0 = off, or TAGG_SLOW_REQUEST_US)\n"
      "  --shards N             partition the live index across N\n"
      "                         time-range shards (default 1, or\n"
      "                         TAGG_SHARDS; runtime: `set shards N`)\n"
      "  --csv PATH[:NAME]      load a CSV relation (repeatable)\n"
      "  --index REL/AGG[/ATTR] register a live index (repeatable),\n"
      "                         e.g. employed/count, employed/sum/salary\n"
      "  (no --csv: a demo relation events(value double) is created with\n"
      "   count(*) and sum(value) indexes)\n",
      argv0);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tagg;

  server::ServerOptions options;
  options.port = 7034;
  options.admin.port = 7035;
  options.loop.trace_sample_every = static_cast<size_t>(
      ResolveIntEnv("TAGG_TRACE_SAMPLE_EVERY", 0, 0, kNoMax));
  options.slow_request_micros =
      ResolveIntEnv("TAGG_SLOW_REQUEST_US", -1, 0, kMaxMicros);
  std::vector<std::pair<std::string, std::string>> csvs;  // path, name
  std::vector<std::string> index_specs;
  // Hardened count resolution (util/env.h): garbage or out-of-range
  // TAGG_SHARDS values warn and fall back instead of being taken at
  // face value.
  size_t shards = ResolveCountEnv("TAGG_SHARDS", 1, 64);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&](int64_t max_value = kNoMax) {
      Result<int64_t> v = ParseInt(next(), 0, max_value);
      if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     std::string(v.status().message()).c_str());
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(next_int(kMaxPort));
    } else if (arg == "--loops") {
      options.num_loops = static_cast<size_t>(next_int());
    } else if (arg == "--workers") {
      options.num_workers = static_cast<size_t>(next_int());
    } else if (arg == "--queue") {
      options.executor_queue = static_cast<size_t>(next_int());
    } else if (arg == "--idle-timeout-ms") {
      options.loop.idle_timeout = std::chrono::milliseconds(next_int());
    } else if (arg == "--rate-limit") {
      options.loop.rate_limit_per_sec = std::atof(next());
    } else if (arg == "--rate-burst") {
      options.loop.rate_limit_burst = std::atof(next());
    } else if (arg == "--admin-port") {
      options.admin.port = static_cast<uint16_t>(next_int(kMaxPort));
    } else if (arg == "--no-admin") {
      options.admin.enabled = false;
    } else if (arg == "--enable-quitz") {
      options.admin.enable_quitz = true;
    } else if (arg == "--trace-sample-every") {
      options.loop.trace_sample_every = static_cast<size_t>(next_int());
    } else if (arg == "--slow-request-us") {
      options.slow_request_micros = next_int(kMaxMicros);
    } else if (arg == "--shards") {
      shards = ClampCount("--shards", next_int(), 1, 64);
    } else if (arg == "--csv") {
      const std::string spec = next();
      const size_t colon = spec.find(':');
      const std::string path =
          colon == std::string::npos ? spec : spec.substr(0, colon);
      const std::string name = colon == std::string::npos
                                   ? BaseName(path)
                                   : spec.substr(colon + 1);
      csvs.emplace_back(path, name);
    } else if (arg == "--index") {
      index_specs.push_back(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }

  Catalog catalog;
  if (csvs.empty()) {
    // Demo relation so a bare `taggd` accepts inserts immediately.
    Result<Schema> schema =
        Schema::Make({{"value", ValueType::kDouble}});
    if (!schema.ok()) {
      std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
      return 1;
    }
    Status registered = catalog.Register(
        std::make_shared<Relation>(std::move(*schema), "events"));
    if (!registered.ok()) {
      std::fprintf(stderr, "%s\n", registered.ToString().c_str());
      return 1;
    }
    if (index_specs.empty()) {
      index_specs = {"events/count", "events/sum/value"};
    }
  }
  for (const auto& [path, name] : csvs) {
    Result<Relation> relation = LoadCsvRelation(path, name);
    if (!relation.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                   relation.status().ToString().c_str());
      return 1;
    }
    const size_t n = relation->size();
    Status registered = catalog.Register(
        std::make_shared<Relation>(std::move(*relation)));
    if (!registered.ok()) {
      std::fprintf(stderr, "%s\n", registered.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s (%zu tuples) as relation %s\n",
                 path.c_str(), n, name.c_str());
  }

  // The daemon always serves through the sharded front (a 1-shard
  // topology holds the same indexes a plain LiveService would) so a
  // runtime `set shards N` can scale out without a restart.
  shard::ShardedServiceOptions shard_options;
  shard_options.shards = shards;
  shard::ShardedLiveService sharded(shard_options);
  for (const std::string& spec : index_specs) {
    const std::vector<std::string> parts = Split(spec, '/');
    if (parts.size() != 2 && parts.size() != 3) {
      std::fprintf(stderr,
                   "--index wants REL/AGG[/ATTR], got '%s'\n",
                   spec.c_str());
      return 2;
    }
    Result<AggregateKind> kind = ParseAggregateKind(parts[1]);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    Status registered = sharded.RegisterIndex(
        catalog, parts[0], *kind, parts.size() == 3 ? parts[2] : "");
    if (!registered.ok()) {
      std::fprintf(stderr, "registering %s: %s\n", spec.c_str(),
                   registered.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "registered live index %s\n", spec.c_str());
  }
  if (shards > 1) {
    // Re-cut the uniform boot boundaries at the loaded data's start
    // quantiles so CSV-loaded relations spread across the shards.
    Status resharded = sharded.Reshard(shards);
    if (!resharded.ok()) {
      std::fprintf(stderr, "resharding: %s\n",
                   resharded.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "live index topology: %s\n",
               sharded.map().ToString().c_str());

  server::Server srv(options,
                     server::ServingState{&catalog, nullptr, &sharded});
  Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  // /quitz sets a flag on the admin loop thread; the actual Shutdown
  // must run here (running it from inside the admin plane would
  // deadlock on the admin loop's own teardown).
  while (g_shutdown == 0 && srv.running() && !srv.quit_requested()) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  srv.Shutdown();
  return 0;
}
