// service-mix: open-loop, seeded Poisson traffic against an in-process
// two-tenant Server on the drinkers schema (incremental views on, default
// admission limits, every acknowledged write fsynced).
//
//   ~70% query  — receiver-view reads from a fixed pool of join-chain shapes;
//   ~20% delta  — a new drinker with one frequents and one likes edge,
//                 replacing the oldest one, so the data stays one size;
//   ~10% update — set-oriented UPDATE of f or l over a receiver query; each
//                 makes a drinker's two edges agree, and deltas keep adding
//                 drinkers whose edges disagree, so updates change state
//                 and make the views over Df and Dl stale.
//
// nproc client threads, each with one connection to one tenant, send each
// request when it is due (or as soon as a thread frees up); latency counts
// from the due time. After the fixed-rate phase a closed-loop probe with the
// same mix and connections measures the saturation rate.
//
// Output checks at the end: every query shape's served answer equals a
// from-scratch Evaluate over the tenant's store snapshot, and each tenant's
// DurableStore, reopened from its directory, holds every acknowledged write.
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebraic/method_library.h"
#include "core/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objrel/encoding.h"
#include "open_loop.h"
#include "relational/evaluator.h"
#include "report.h"
#include "text/parser.h"

namespace perfbench {
namespace {

using setrec::Result;
using setrec::Status;

constexpr std::uint32_t kTenants = 2;
constexpr int kSetupRepeats = 5;
/// Drinkers per tenant; each delta retires the oldest one as it adds one.
constexpr std::uint32_t kDrinkers = 1024;
/// Bars and beers (as many of each).
constexpr std::uint32_t kBars = 32;
/// Share of the measured seconds spent in the fixed-rate phase; the rest
/// is the saturation probe.
constexpr double kFixedShare = 0.7;
/// Arrivals drawn for the saturation probe (1/s); above what nproc
/// closed-loop connections complete on the hosts this runs on.
constexpr double kProbeArrivalRate = 50000.0;

const char* const kQueryShapes[] = {
    "Df",
    "join[f = Ba](Df, Bas)",
    "project[D, s](join[f = Ba](Df, Bas))",
    "project[D, Ba](select[l = s](product(Dl, Bas)))",
    "project[D, f](select[l = s](join[f = Ba](join[D = D2](Df, "
    "rename[D -> D2](Dl)), Bas)))",
};
constexpr std::size_t kNumShapes = std::size(kQueryShapes);

/// Set-oriented UPDATEs: (property, receiver query).
const char* const kUpdateShapes[][2] = {
    // Frequent the bar serving the beer the drinker likes.
    {"f", "project[D, Ba](join[l = s](Dl, Bas))"},
    // Like the beer served where the drinker goes.
    {"l", "project[D, s](join[f = Ba](Df, Bas))"},
};

std::string TenantName(std::uint32_t t) { return "t" + std::to_string(t); }

/// Initial per-tenant instance, drawn from the seed. Every drinker
/// frequents one bar and likes one beer, and serves is a bijection between
/// bars and beers, so both update shapes produce key sets (one new value
/// per receiving drinker) as a set-oriented UPDATE requires.
std::string InitialDelta(std::uint64_t seed, std::uint32_t tenant) {
  std::mt19937_64 rng(seed * 1000003u + tenant);
  std::string text = "delta {";
  std::vector<std::uint32_t> beer_of(kBars);
  for (std::uint32_t i = 0; i < kBars; ++i) beer_of[i] = i;
  for (std::size_t i = kBars - 1; i > 0; --i) {
    std::swap(beer_of[i], beer_of[rng() % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < kBars; ++i) {
    text += " add object Ba(" + std::to_string(i) + "); add object Be(" +
            std::to_string(i) + ");";
  }
  for (std::uint32_t bar = 0; bar < kBars; ++bar) {
    text += " add edge Ba(" + std::to_string(bar) + ") s Be(" +
            std::to_string(beer_of[bar]) + ");";
  }
  for (std::uint32_t d = 0; d < kDrinkers; ++d) {
    const std::string dn = "D(" + std::to_string(d) + ")";
    text += " add object " + dn + "; add edge " + dn + " f Ba(" +
            std::to_string(rng() % kBars) + "); add edge " + dn + " l Be(" +
            std::to_string(rng() % kBars) + ");";
  }
  return text + " }";
}

/// A write the client saw acknowledged, with the commit sequence the
/// server answered with. For a delta, `index` is its place in the tenant's
/// delta stream (delta j retires D(j) and adds D(kDrinkers + j)).
struct AckedWrite {
  std::uint32_t tenant = 0;
  std::uint64_t sequence = 0;
  std::int64_t index = -1;  // -1 for updates
};

struct Request {
  OpKind op = OpKind::kQuery;
  std::string property;  // update only
  std::string body;
  std::int64_t index = -1;  // delta only: place in the tenant's stream
};

/// Numbers each tenant's deltas in schedule order, so a seed fixes the
/// whole stream; -1 for other ops.
class DeltaNumbering {
 public:
  std::int64_t Next(const Arrival& a) {
    return a.op == OpKind::kDelta ? next_[a.tenant]++ : -1;
  }

 private:
  std::array<std::int64_t, kTenants> next_{};
};

/// The concrete request for an arrival; `index` from DeltaNumbering.
Request MakeRequest(const Arrival& a, std::int64_t index) {
  Request r;
  r.op = a.op;
  r.index = index;
  switch (a.op) {
    case OpKind::kQuery:
      r.body = kQueryShapes[a.variant % kNumShapes];
      break;
    case OpKind::kUpdate:
      r.property = kUpdateShapes[a.variant % 2][0];
      r.body = kUpdateShapes[a.variant % 2][1];
      break;
    case OpKind::kDelta: {
      const auto bar = static_cast<std::uint32_t>((a.variant >> 8) % kBars);
      const auto beer = static_cast<std::uint32_t>((a.variant >> 20) % kBars);
      // Deleting an object drops its edges, whatever updates made them.
      const std::string dn = "D(" + std::to_string(kDrinkers + index) + ")";
      r.body = "delta { del object D(" + std::to_string(index) +
               "); add object " + dn + "; add edge " + dn + " f Ba(" +
               std::to_string(bar) + "); add edge " + dn + " l Be(" +
               std::to_string(beer) + "); }";
      break;
    }
  }
  return r;
}

/// One server instance with its tenants seeded and its views warm.
struct Service {
  std::unique_ptr<setrec::DrinkersSchema> schema;
  std::string dir;
  std::unique_ptr<setrec::Server> server;
};

setrec::Client::Options ClientOptions(setrec::Server* server,
                                      std::uint32_t tenant,
                                      setrec::Tracer* tracer,
                                      setrec::MetricsRegistry* metrics) {
  setrec::Client::Options options;
  options.tenant = TenantName(tenant);
  options.dial = [server]() -> Result<setrec::ConnectionPtr> {
    auto [client_end, server_end] = setrec::CreateInProcessPair();
    server->Serve(std::move(server_end));
    return std::move(client_end);
  };
  options.tracer = tracer;
  options.metrics = metrics;
  return options;
}

Status StartService(const std::string& dir, std::uint64_t seed,
                    setrec::Tracer* tracer, setrec::MetricsRegistry* metrics,
                    Service& svc) {
  svc.server.reset();
  SETREC_ASSIGN_OR_RETURN(setrec::DrinkersSchema schema,
                          setrec::MakeDrinkersSchema());
  svc.schema = std::make_unique<setrec::DrinkersSchema>(std::move(schema));
  svc.dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setrec::ServerOptions options;
  options.data_dir = dir;
  options.schema = &svc.schema->schema;
  options.tracer = tracer;
  options.metrics = metrics;
  options.own_pool_workers = setrec::ThreadPool::DefaultWorkerCount();
  std::vector<setrec::TenantConfig> tenants;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    setrec::TenantConfig tenant;
    tenant.name = TenantName(t);
    tenant.incremental_views = true;
    tenants.push_back(std::move(tenant));
  }
  SETREC_ASSIGN_OR_RETURN(svc.server,
                          setrec::Server::Create(options, std::move(tenants)));
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    setrec::Client client(
        ClientOptions(svc.server.get(), t, nullptr, nullptr));
    SETREC_ASSIGN_OR_RETURN(setrec::Response seeded,
                            client.ApplyDelta(InitialDelta(seed, t)));
    if (seeded.code != setrec::StatusCode::kOk) {
      return Status::Internal("seeding " + TenantName(t) + ": " +
                              seeded.message);
    }
    // Register every view the traffic reads, so timing starts warm.
    for (const char* shape : kQueryShapes) {
      SETREC_ASSIGN_OR_RETURN(setrec::Response warm, client.Query(shape));
      if (warm.code != setrec::StatusCode::kOk) {
        return Status::Internal(std::string("warming ") + shape + ": " +
                                warm.message);
      }
    }
  }
  return Status::OK();
}

std::string Render(const setrec::Relation& relation,
                   const setrec::Schema& schema) {
  // The server's rendering: sorted tuples, values as ClassName(index).
  std::string out;
  for (const setrec::Tuple* tuple : relation.SortedTuples()) {
    for (std::size_t i = 0; i < tuple->arity(); ++i) {
      if (i != 0) out.push_back(' ');
      const setrec::ObjectId o = tuple->at(i);
      out += schema.class_name(o.class_id());
      out += '(' + std::to_string(o.index()) + ')';
    }
    out.push_back('\n');
  }
  return out;
}

struct PhaseResult {
  std::vector<RequestSample> samples;
  std::vector<AckedWrite> acked;
  std::vector<std::string> errors;
  double seconds = 0.0;
};

/// Sends `arrivals` from one thread per connection. Open loop: a thread
/// waits for its next arrival's due time. Closed loop (`open` false): it
/// sends the next arrival as soon as its previous request completed, and
/// due time is the send time.
PhaseResult RunPhase(Service& svc, const std::vector<Arrival>& arrivals,
                     DeltaNumbering& numbering, bool open, double seconds,
                     std::uint8_t phase, setrec::Tracer* tracer,
                     setrec::MetricsRegistry* metrics) {
  const std::size_t threads = setrec::ThreadPool::DefaultWorkerCount();
  // Arrivals are split by tenant; a tenant's threads share its queue.
  std::array<std::vector<std::pair<Arrival, std::int64_t>>, kTenants> queues;
  for (const Arrival& a : arrivals) {
    queues[a.tenant].emplace_back(a, numbering.Next(a));
  }
  std::array<std::atomic<std::size_t>, kTenants> next{};
  std::vector<PhaseResult> per_thread(threads);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const auto tenant = static_cast<std::uint32_t>(w % kTenants);
      setrec::Client client(
          ClientOptions(svc.server.get(), tenant, tracer, metrics));
      PhaseResult& mine = per_thread[w];
      auto& queue = queues[tenant];
      while (true) {
        const std::size_t i = next[tenant].fetch_add(1);
        if (i >= queue.size()) break;
        const auto& [arrival, index] = queue[i];
        const Request request = MakeRequest(arrival, index);
        RequestSample s;
        s.op = static_cast<std::uint8_t>(request.op);
        s.tenant = tenant;
        s.phase = phase;
        s.traced = tracer != nullptr;
        s.body_bytes = static_cast<std::uint32_t>(request.body.size());
        if (open) {
          const auto due = start + std::chrono::nanoseconds(arrival.due_ns);
          std::this_thread::sleep_until(due);
          s.due_ns = arrival.due_ns;
        } else {
          if (Clock::now() >= stop) break;
          s.due_ns = (Clock::now() - start).count();
        }
        s.sent_ns = (Clock::now() - start).count();
        Result<setrec::Response> reply = setrec::Response{};
        {
          setrec::TraceSpan root(tracer, "bench/request");
          switch (request.op) {
            case OpKind::kQuery:
              reply = client.Query(request.body);
              break;
            case OpKind::kDelta:
              reply = client.ApplyDelta(request.body);
              break;
            case OpKind::kUpdate:
              reply = client.Update(request.property, request.body);
              break;
          }
        }
        s.done_ns = (Clock::now() - start).count();
        if (tracer != nullptr) {
          // The text layer's cost for this body, parsed the way the server
          // parses it; outside the request's timing.
          setrec::TraceSpan parse(tracer, "bench/parse");
          if (request.op == OpKind::kDelta) {
            (void)setrec::ParseDelta(request.body, &svc.schema->schema);
          } else {
            (void)setrec::ParseExpression(request.body);
          }
        }
        s.ok = reply.ok() && reply->code == setrec::StatusCode::kOk;
        if (s.ok && request.op != OpKind::kQuery) {
          mine.acked.push_back(
              {tenant, reply->applied_sequence, request.index});
        } else if (!s.ok && mine.errors.size() < 8) {
          mine.errors.push_back(reply.ok() ? reply->message
                                           : reply.status().ToString());
        }
        mine.samples.push_back(s);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  PhaseResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (PhaseResult& p : per_thread) {
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.acked.insert(out.acked.end(), p.acked.begin(), p.acked.end());
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
  }
  return out;
}

void RecordPhase(const PhaseResult& phase, Report& report,
                 std::vector<AckedWrite>& acked) {
  for (const RequestSample& s : phase.samples) {
    ++report.attempted;
    if (!s.ok) ++report.failed;
  }
  for (const std::string& e : phase.errors) report.Error(e);
  report.requests.insert(report.requests.end(), phase.samples.begin(),
                         phase.samples.end());
  acked.insert(acked.end(), phase.acked.begin(), phase.acked.end());
}

/// Served answers equal from-scratch evaluation; every acknowledged write
/// survives a reopen: the reopened store recovers through the highest
/// acknowledged sequence to exactly the final served state, and holds the
/// drinker of every acknowledged delta no acknowledged delta retired.
/// Drains and destroys the server.
void CheckService(Service& svc, const std::vector<AckedWrite>& acked,
                  const std::string& label, Report& report) {
  const setrec::Schema& schema = svc.schema->schema;
  std::vector<setrec::Instance> finals;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    setrec::DurableStore* store = svc.server->store(TenantName(t));
    const setrec::Instance snapshot = store->SnapshotState();
    setrec::Client client(
        ClientOptions(svc.server.get(), t, nullptr, nullptr));
    auto db = setrec::EncodeInstance(snapshot);
    bool all_equal = db.ok();
    for (std::size_t q = 0; q < kNumShapes && all_equal; ++q) {
      auto served = client.Query(kQueryShapes[q]);
      auto expr = setrec::ParseExpression(kQueryShapes[q]);
      auto scratch = expr.ok() ? setrec::Evaluate(*expr, *db)
                               : Result<setrec::Relation>(expr.status());
      all_equal = served.ok() && served->code == setrec::StatusCode::kOk &&
                  scratch.ok() && served->body == Render(*scratch, schema);
    }
    report.Check(all_equal, label + " " + TenantName(t) +
                                ": served views equal from-scratch Evaluate");
    finals.push_back(snapshot);
  }
  svc.server.reset();  // drains every session and closes the stores
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    auto reopened = setrec::DurableStore::Open(
        (std::filesystem::path(svc.dir) / TenantName(t)).string(), &schema);
    if (!reopened.ok()) {
      report.Check(false, label + " " + TenantName(t) + ": reopen failed: " +
                              reopened.status().ToString());
      continue;
    }
    const setrec::Instance& state = (*reopened)->instance();
    std::uint64_t max_sequence = 0;
    std::set<std::int64_t> deltas;
    std::size_t writes = 0;
    for (const AckedWrite& w : acked) {
      if (w.tenant != t) continue;
      ++writes;
      max_sequence = std::max(max_sequence, w.sequence);
      if (w.index >= 0) deltas.insert(w.index);
    }
    std::size_t missing = 0;
    for (std::int64_t j : deltas) {
      const bool retired = deltas.count(j + kDrinkers) != 0;
      const setrec::ObjectId added(
          svc.schema->drinker, static_cast<std::uint32_t>(kDrinkers + j));
      if (!retired && !state.HasObject(added)) ++missing;
    }
    report.Check((*reopened)->last_sequence() >= max_sequence &&
                     state == finals[t] && missing == 0,
                 label + " " + TenantName(t) + ": reopened store holds all " +
                     std::to_string(writes) + " acknowledged writes (through "
                     "sequence " + std::to_string(max_sequence) + ")");
  }
  std::filesystem::remove_all(svc.dir);
}

/// The program's counters the per-layer metrics read.
std::map<std::string, double> Counters(setrec::MetricsRegistry& metrics) {
  const auto& e = metrics.engine;
  const auto named = [&](const char* name) {
    return static_cast<double>(metrics.CounterNamed(name).value());
  };
  return {
      {"net.requests", named("net.requests")},
      {"net.shed", named("net.shed")},
      {"net.client.retries", named("net.client.retries")},
      {"wal.bytes", static_cast<double>(e.wal_bytes.value())},
      {"wal.fsyncs", static_cast<double>(e.wal_fsyncs.value())},
      {"store.commits", static_cast<double>(e.store_commits.value())},
      {"incremental.hits", static_cast<double>(e.incremental_hits.value())},
      {"incremental.refreshes",
       static_cast<double>(e.incremental_refreshes.value())},
      {"incremental.fallbacks",
       static_cast<double>(e.incremental_fallbacks.value())},
      {"incremental.delta_rows",
       static_cast<double>(e.incremental_delta_rows.value())},
      // Every read that was not a hit observes the refresh histogram:
      // propagations, cold rebuilds and fallbacks alike.
      {"incremental.refresh_count",
       static_cast<double>(e.incremental_refresh_ns.count())},
      {"incremental.refresh_ns_sum",
       static_cast<double>(e.incremental_refresh_ns.sum())},
  };
}

}  // namespace

int RunService(const Args& args, Report& report) {
  Service svc;
  const std::string data = args.out_dir + "/svc-data";
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    Status started = StartService(data, args.seed, nullptr, nullptr, svc);
    if (!started.ok()) {
      report.Check(false, "set-up: " + started.ToString());
      return 1;
    }
    report.setup_s.push_back(MsSince(start) / 1000.0);
  }
  report.values["offered_rps"] = args.rate;
  report.values["client_threads"] =
      static_cast<double>(setrec::ThreadPool::DefaultWorkerCount());

  // A traced run splits the fixed-rate time between an untraced server and
  // a traced one (same schedule), so tracing overhead is measured in-run;
  // it skips the saturation probe.
  const double fixed_s =
      args.trace ? args.seconds / 2 : args.seconds * kFixedShare;
  const auto fixed_ns = static_cast<std::int64_t>(fixed_s * 1e9);
  const std::vector<Arrival> schedule =
      PoissonSchedule(args.seed, args.rate, fixed_ns, kTenants);
  std::vector<AckedWrite> acked;
  DeltaNumbering numbering;
  PhaseResult fixed = RunPhase(svc, schedule, numbering, /*open=*/true, fixed_s,
                               0, nullptr, nullptr);
  report.values["fixed_seconds"] = fixed.seconds;
  report.values["scheduled_seconds"] = fixed_s;
  RecordPhase(fixed, report, acked);

  if (!args.trace) {
    // Closed-loop probe: arrivals are drawn faster than the probe sends
    // them, so the phase ends on time; only their mix and order matter.
    const double probe_s = args.seconds - fixed_s;
    const std::vector<Arrival> probe = PoissonSchedule(
        args.seed + 7919, kProbeArrivalRate,
        static_cast<std::int64_t>(probe_s * 1e9), kTenants);
    PhaseResult sat = RunPhase(svc, probe, numbering, /*open=*/false, probe_s,
                               1, nullptr, nullptr);
    report.values["probe_seconds"] = sat.seconds;
    RecordPhase(sat, report, acked);
    CheckService(svc, acked, "untraced", report);
    return 0;
  }

  CheckService(svc, acked, "untraced", report);
  acked.clear();
  setrec::Tracer tracer;
  setrec::MetricsRegistry metrics;
  Status started = StartService(data, args.seed, &tracer, &metrics, svc);
  if (!started.ok()) {
    report.Check(false, "traced set-up: " + started.ToString());
    return 1;
  }
  // Count only the traced phase's work, not the set-up's seeding; the
  // bench/phase span bounds the spans the per-layer metrics read.
  const std::map<std::string, double> before = Counters(metrics);
  DeltaNumbering traced_numbering;
  PhaseResult traced;
  {
    setrec::TraceSpan phase(&tracer, "bench/phase");
    traced = RunPhase(svc, schedule, traced_numbering, true, fixed_s, 0,
                      &tracer, &metrics);
  }
  RecordPhase(traced, report, acked);
  for (const auto& [name, value] : Counters(metrics)) {
    report.values[name] = value - before.at(name);
  }
  CheckService(svc, acked, "traced", report);
  WriteTrace(tracer, args.out_dir + "/trace.json");
  return 0;
}

}  // namespace perfbench
