#include "layers.h"

#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/auditor.h"
#include "db/parser.h"
#include "service/audit_service.h"

namespace perfbench {
namespace {

template <typename F>
double time_us(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return micros_between(start, Clock::now());
}

epi::AuditContext& configure(epi::AuditContext& ctx, const epi::Auditor& auditor,
                             const epi::WorldSet& a) {
  ctx.reset_stages(auditor.engine().stage_names());
  if (auditor.prior() == epi::PriorAssumption::kSubcubeKnowledge) {
    ctx.set_interval_oracle(auditor.shared_subcube_oracle());
    ctx.prepare_subcube(a);
  }
  return ctx;
}

/// "engine.stage.<idx>.<name>.nanos" -> <name>; empty for other counters.
std::string stage_of(const std::string& counter) {
  static const std::string prefix = "engine.stage.";
  static const std::string suffix = ".nanos";
  if (counter.rfind(prefix, 0) != 0 || counter.size() <= suffix.size() ||
      counter.compare(counter.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  const std::size_t dot = counter.find('.', prefix.size());
  return counter.substr(dot + 1, counter.size() - suffix.size() - dot - 1);
}

void set_quantiles(Result* result, const std::string& name,
                   const std::vector<double>& values) {
  result->set(name + ".p50", quantile(values, 0.5));
  result->set(name + ".p95", quantile(values, 0.95));
}

/// An AuditService in this process, driven one request at a time: each
/// span runs from submit_async until its callback has run.
class InProcessService {
 public:
  InProcessService(const PeelStream& stream, unsigned threads) {
    epi::service::ServiceOptions options;
    options.workers = threads;
    options.auditor.backend = stream.backend;
    if (const epi::Status s = epi::service::AuditService::try_create(
            stream.universe, stream.state, stream.properties.front(), stream.prior,
            options, &service_);
        !s.ok()) {
      throw std::runtime_error(s.to_string());
    }
  }

  double request(const epi::Disclosure& d) {
    epi::service::AuditRequest request;
    request.user = d.user;
    request.query_text = d.query_text;
    request.answer = d.answer;
    bool done = false;
    Clock::time_point finished;
    const Clock::time_point start = Clock::now();
    service_->submit_async(std::move(request), [&](epi::service::AuditResponse) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mutex_);
      finished = now;
      done = true;
      cv_.notify_one();
    });
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done; });
    return micros_between(start, finished);
  }

 private:
  std::unique_ptr<epi::service::AuditService> service_;
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace

std::vector<std::string> all_stage_names() {
  std::set<std::string> names;
  for (const auto prior :
       {epi::PriorAssumption::kUnrestricted, epi::PriorAssumption::kProduct,
        epi::PriorAssumption::kLogSupermodular,
        epi::PriorAssumption::kSubcubeKnowledge}) {
    const epi::DecisionEngine engine(8, prior);
    for (const std::string& name : engine.stage_names()) names.insert(name);
  }
  return {names.begin(), names.end()};
}

void peel_stream(const PeelStream& stream, unsigned service_threads,
                 LayerSamples* samples) {
  epi::AuditorOptions one_thread;
  one_thread.backend = stream.backend;
  const epi::Auditor auditor(stream.universe, stream.prior, one_thread);
  const epi::SetBackend backend = auditor.resolved_backend();
  const auto& entries = stream.log.entries();

  // db: parse and compile each distinct disclosure once.
  std::unordered_map<std::string, epi::WorldSet> disclosed;
  std::unordered_map<std::string, double> first_cost;
  double compile_us_total = 0;
  for (const epi::Disclosure& d : entries) {
    const std::string key = disclosure_key(d.query_text, d.answer);
    if (disclosed.count(key) != 0) continue;
    epi::QueryPtr query;
    const double parse = time_us([&] { query = epi::parse_query(d.query_text); });
    epi::WorldSet set(stream.universe.size(), backend);
    const double compile = time_us([&] {
      epi::WorldSet satisfying = query->compile(stream.universe, backend);
      set = d.answer ? std::move(satisfying) : ~satisfying;
    });
    samples->parse_us.push_back(parse);
    samples->compile_us.push_back(compile);
    compile_us_total += compile;
    first_cost[key] = parse + compile;
    disclosed.emplace(key, std::move(set));
  }

  // engine: decide every distinct (A, B) on a fresh context (no memo hits).
  for (const std::string& text : stream.properties) {
    const epi::WorldSet a =
        epi::parse_query(text)->compile(stream.universe, backend);
    epi::AuditContext ctx;
    configure(ctx, auditor, a);
    std::unordered_set<std::string> decided;
    for (const epi::Disclosure& d : entries) {
      const std::string key = disclosure_key(d.query_text, d.answer);
      if (!decided.insert(key).second) continue;
      const epi::WorldSet& b = disclosed.at(key);
      samples->decide_us.push_back(
          time_us([&] { (void)auditor.engine().decide(a, b, ctx); }));
    }
  }

  // worlds + incremental engine: replay each session in order against the
  // first property, as the service's sessions do.
  if (stream.replay_sessions && !stream.properties.empty()) {
    const epi::WorldSet a =
        epi::parse_query(stream.properties.front())->compile(stream.universe, backend);
    epi::AuditContext ctx;
    configure(ctx, auditor, a);
    epi::AuditContext pair_ctx;
    configure(pair_ctx, auditor, a);
    struct SessionState {
      epi::WorldSet s;
      epi::IncrementalContext inc;
    };
    std::unordered_map<std::string, SessionState> sessions;
    std::unordered_set<std::string> decided;
    samples->request_inner_us.reserve(samples->request_inner_us.size() +
                                      entries.size());
    std::unique_ptr<InProcessService> service;
    if (service_threads != 0) {
      service = std::make_unique<InProcessService>(stream, service_threads);
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const epi::Disclosure& d = entries[i];
      // The same request through the service, before or after the inner
      // replay by turns, so neither side always runs on the warmer caches.
      if (service && i % 2 == 0) samples->service_us.push_back(service->request(d));
      const std::string key = disclosure_key(d.query_text, d.answer);
      auto it = sessions.find(d.user);
      if (it == sessions.end()) {
        it = sessions
                 .emplace(d.user,
                          SessionState{epi::WorldSet::universe(
                                           stream.universe.size(), backend),
                                       {}})
                 .first;
      }
      SessionState& session = it->second;
      const epi::WorldSet& b = disclosed.at(key);
      double inner = 0;
      if (decided.insert(key).second) {
        inner += first_cost.at(key);
        inner += time_us([&] { (void)auditor.engine().decide(a, b, pair_ctx); });
      }
      const double absorb = time_us([&] {
        epi::WorldSet next = session.s & b;
        if (next != session.s) {
          session.s = std::move(next);
          session.inc.dirty = true;
        }
      });
      const double incremental = time_us([&] {
        (void)auditor.engine().decide_incremental(a, session.s, session.inc, ctx);
      });
      samples->absorb_us.push_back(absorb);
      samples->incremental_us.push_back(incremental);
      samples->request_inner_us.push_back(inner + absorb + incremental);
      if (service && i % 2 == 1) samples->service_us.push_back(service->request(d));
    }
  }

  // core: the batch audit itself at 1 and 2 threads, same log, same
  // properties. Self time is the 1-thread call minus the compile time above
  // and the stage time its own reports count.
  // Fresh auditors on both sides (the one above has warmed its oracle's
  // interval memo); the oracle itself is set-up and is built before timing.
  auto batch_ms = [&](unsigned threads, std::vector<epi::AuditReport>* out) {
    epi::AuditorOptions options = one_thread;
    options.threads = threads;
    const epi::Auditor fresh(stream.universe, stream.prior, options);
    if (stream.prior == epi::PriorAssumption::kSubcubeKnowledge) {
      (void)fresh.shared_subcube_oracle();
    }
    return time_us([&] { *out = fresh.audit_many(stream.log, stream.properties); }) /
           1000.0;
  };
  std::vector<epi::AuditReport> reports, parallel_reports;
  const double t1 = batch_ms(1, &reports);
  const double t2 = batch_ms(2, &parallel_reports);
  samples->audit_1t_ms += t1;
  samples->audit_2t_ms += t2;
  samples->compile_ms += compile_us_total / 1000.0;
  for (const epi::AuditReport& report : reports) {
    for (const epi::obs::CounterSample& c : report.metrics.counters) {
      const std::string stage = stage_of(c.name);
      if (!stage.empty()) {
        samples->stage_nanos[stage] += static_cast<double>(c.value);
        samples->stage_ms += static_cast<double>(c.value) / 1e6;
      }
    }
    samples->memo_hits += static_cast<double>(report.metrics.counter("engine.memo.hits"));
    samples->memo_lookups +=
        static_cast<double>(report.metrics.counter("engine.memo.lookups"));
  }
}

void report_layers(const LayerSamples& samples, Result* result) {
  set_quantiles(result, "db.parse_us", samples.parse_us);
  set_quantiles(result, "db.compile_us", samples.compile_us);
  set_quantiles(result, "worlds.absorb_us", samples.absorb_us);
  set_quantiles(result, "engine.decide_us", samples.decide_us);
  set_quantiles(result, "engine.incremental_us", samples.incremental_us);
  double total = 0;
  for (const auto& [name, nanos] : samples.stage_nanos) total += nanos;
  for (const std::string& name : all_stage_names()) {
    const auto it = samples.stage_nanos.find(name);
    result->set("engine.stage." + name + ".share",
                it == samples.stage_nanos.end() || total == 0 ? 0.0
                                                              : it->second / total);
  }
  result->set("engine.memo_hit_ratio",
              samples.memo_lookups == 0 ? 0.0 : samples.memo_hits / samples.memo_lookups);
  result->set("engine.pool_speedup", samples.audit_1t_ms / samples.audit_2t_ms);
  result->set("engine.pool_speedup.base_1t_ms", samples.audit_1t_ms);
  result->set("core.batch_ms", samples.audit_1t_ms);
  result->set("core.batch_self_ms",
              samples.audit_1t_ms - samples.compile_ms - samples.stage_ms);
}

}  // namespace perfbench
