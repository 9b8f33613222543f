#include "scan.h"

#include <atomic>
#include <limits>
#include <semaphore>
#include <sstream>
#include <thread>

#include "analyze/analyze.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "support/errors.h"
#include "support/mapped_file.h"
#include "text/html.h"
#include "text/normalize.h"

namespace kizzle::kbench {

ServeSetup start_server(const std::string& artifact_path,
                        const std::vector<core::DeployedSignature>* fallback) {
  ServeSetup out;
  const std::size_t rss0 = resident_bytes();
  const auto t0 = Clock::now();
  std::shared_ptr<const engine::Database> db;
  try {
    auto mapping = std::make_shared<const support::MappedFile>(
        support::MappedFile::open(artifact_path));
    db = std::make_shared<const engine::Database>(
        engine::Database::from_artifact(std::move(mapping)));
  } catch (const kizzle::Error& e) {
    if (fallback == nullptr) throw;
    out.load_refused = true;
    out.refusal = e.what();
  }
  const auto t1 = Clock::now();
  out.artifact_load_ms = seconds_between(t0, t1) * 1e3;
  if (db == nullptr) {
    db = std::make_shared<const engine::Database>(
        engine::Database::compile(*fallback));
    out.compile_ms = seconds_between(t1, Clock::now()) * 1e3;
  }
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  out.server = std::make_unique<serve::ScanServer>(std::move(db), cfg);
  out.seconds = seconds_between(t0, Clock::now());
  const std::size_t rss1 = resident_bytes();
  out.rss_mb = (static_cast<double>(rss1) - static_cast<double>(rss0)) / 1048576.0;
  return out;
}

std::vector<std::string> chained_deltas(
    const std::vector<core::DeployedSignature>& base,
    const std::vector<core::DeployedSignature>& filler) {
  std::vector<std::string> out;
  std::vector<core::DeployedSignature> set = base;
  for (const core::DeployedSignature& sig : filler) {
    core::DeltaArtifact delta;
    delta.base_fingerprint = core::fingerprint(set);
    set.push_back(sig);
    delta.result_fingerprint = core::fingerprint(set);
    delta.added.push_back(sig);
    std::ostringstream os;
    core::save_delta(os, delta);
    out.push_back(std::move(os).str());
  }
  return out;
}

double deploy(serve::ScanServer& server, const std::string& bytes,
              Tracer* tracer, Tracer::Buffer* buf, Tally& tally) {
  if (buf != nullptr) {
    std::istringstream is(bytes);
    const std::int64_t t0 = tracer->now_ns();
    const core::DeltaArtifact delta = core::load_delta(is);
    const std::int64_t t1 = tracer->now_ns();
    const auto base = server.database();
    (void)analyze::analyze_delta(*base, delta);
    const std::int64_t t2 = tracer->now_ns();
    (void)base->extend(delta);
    const std::int64_t t3 = tracer->now_ns();
    buf->spans.push_back({Span::kDeltaLoad, 0, t0, t1});
    buf->spans.push_back({Span::kDeltaLint, 0, t1, t2});
    buf->spans.push_back({Span::kDeltaExtend, 0, t2, t3});
  }
  std::istringstream is(bytes);
  ++tally.attempted;
  const auto t0 = Clock::now();
  const serve::ScanServer::SwapResult r = server.deploy_delta(is);
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  if (!r.accepted) tally.fail("delta refused: " + r.reason);
  return ms;
}

namespace {

struct ClientResult {
  std::vector<double> latency_us;
  std::vector<std::size_t> page;  // the page of each latency_us entry
  std::vector<double> done_s;  // completion times of served pages
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
};

// One closed-loop client: takes the next page, prepares its text, submits
// it and waits for the verdict before taking another.
void client_loop(serve::ScanServer& server, const std::vector<Page>& pages,
                 std::atomic<std::uint64_t>& next, Clock::time_point start,
                 Clock::time_point deadline, Tracer* tracer, ClientResult& out) {
  Tracer::Buffer* buf = tracer != nullptr ? &tracer->buffer() : nullptr;
  std::binary_semaphore done(0);
  serve::ScanResponse response;
  engine::Scratch scratch;
  std::vector<std::size_t> candidates;
  match::teddy::HitBuffer hits;
  std::vector<std::uint32_t> hints;
  std::size_t index = 0;  // of the page being served
  const auto fail = [&](std::string why) {
    out.latency_us.push_back(std::numeric_limits<double>::infinity());
    out.page.push_back(index);
    if (out.failures.size() < 8) out.failures.push_back(std::move(why));
  };

  for (;;) {
    const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
    if (Clock::now() >= deadline) break;
    index = k % pages.size();
    const Page& page = pages[index];
    ++out.attempted;
    std::string text;
    const auto t0 = Clock::now();
    if (buf == nullptr) {
      text = text::normalize_document(page.html);
    } else {
      const std::int64_t a = tracer->now_ns();
      const std::vector<text::ScriptBlock> blocks = text::extract_scripts(page.html);
      const std::int64_t b = tracer->now_ns();
      for (const text::ScriptBlock& block : blocks) {
        if (block.has_src &&
            block.body.find_first_not_of(" \t\r\n") == std::string::npos) {
          continue;
        }
        text += text::normalize_js(block.body);
      }
      const std::int64_t c = tracer->now_ns();
      buf->spans.push_back({Span::kExtract, k + 1, a, b});
      buf->spans.push_back({Span::kNormalize, k + 1, b, c});
    }
    if (text != page.normalized) {
      fail("prepared text differs from normalize_document");
      continue;
    }
    const std::int64_t s0 = buf != nullptr ? tracer->now_ns() : 0;
    const serve::RequestStatus admitted =
        server.submit(std::move(text), [&](serve::ScanResponse r) {
          response = std::move(r);
          done.release();
        });
    if (admitted != serve::RequestStatus::kOk) {
      fail(std::string("submit refused: ") + serve::request_status_name(admitted));
      continue;
    }
    done.acquire();
    const auto t1 = Clock::now();
    if (buf != nullptr) {
      const std::int64_t s1 = tracer->now_ns();
      buf->spans.push_back({Span::kRoundTrip, k + 1, s0, s1});
    }
    if (response.status != serve::RequestStatus::kOk || !response.outcome.complete()) {
      fail(std::string("request not served: ") +
           serve::request_status_name(response.status));
      continue;
    }
    const std::optional<std::size_t> verdict =
        response.matched ? std::optional<std::size_t>(response.sig_index)
                         : std::nullopt;
    if (verdict != page.reference) {
      fail("verdict differs from the brute-force reference on page " +
           std::to_string(index));
      continue;
    }
    out.latency_us.push_back(seconds_between(t0, t1) * 1e6);
    out.page.push_back(index);
    out.done_s.push_back(seconds_between(start, t1));

    if (buf != nullptr) {
      // Replays of the worker's layer calls on the same text, after the
      // verdict, so the page's own latency does not include them.
      const auto db = server.database();
      const std::int64_t a = tracer->now_ns();
      db->prefilter().candidates_into(page.normalized, candidates, hits,
                                      nullptr, &hints);
      const std::int64_t b = tracer->now_ns();
      (void)engine::confirm(*db, candidates, page.normalized, scratch,
                            [](const engine::MatchEvent&) {
                              return engine::ScanDecision::Stop;
                            });
      const std::int64_t c = tracer->now_ns();
      (void)engine::first_match(*db, page.normalized, scratch);
      const std::int64_t d = tracer->now_ns();
      buf->spans.push_back({Span::kPrefilter, k + 1, a, b});
      buf->spans.push_back({Span::kConfirm, k + 1, b, c});
      buf->spans.push_back({Span::kEngineScan, k + 1, c, d});
    }
  }
}

}  // namespace

ScanPhase run_scan(serve::ScanServer& server, const std::vector<Page>& pages,
                   double seconds, const std::vector<std::string>& deltas, Tracer* tracer,
                   Tally& tally) {
  ScanPhase phase;
  std::atomic<std::uint64_t> next{0};
  std::vector<ClientResult> results(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(server, pages, next, start, deadline, tracer, results[c]);
        } catch (const std::exception& e) {
          results[c].latency_us.push_back(std::numeric_limits<double>::infinity());
          results[c].page.push_back(pages.size());  // no page of its own
          results[c].failures.push_back(std::string("client stopped: ") + e.what());
        }
      });
    }
    Tracer::Buffer* buf = tracer != nullptr ? &tracer->buffer() : nullptr;
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          seconds * (static_cast<double>(k) + 0.5) /
                          static_cast<double>(deltas.size()))));
      phase.deploy_ms.push_back(deploy(server, deltas[k], tracer, buf, tally));
    }
  }  // joins the clients
  // The clients stop at the deadline; a deploy still running then only
  // lengthens the phase's wall time.
  const double wall_s = std::min(seconds, seconds_between(start, Clock::now()));
  // Throughput: the median over the phase's whole one-second windows, so
  // a burst of outside interference moves it less than the plain mean;
  // phases shorter than three windows report pages served / wall time.
  const std::size_t windows = static_cast<std::size_t>(wall_s);
  std::vector<double> per_window(windows, 0.0);
  std::size_t served = 0;
  for (const ClientResult& r : results) {
    served += r.done_s.size();
    for (double t : r.done_s) {
      const auto w = static_cast<std::size_t>(t);
      if (w < windows) per_window[w] += 1;
    }
  }
  phase.pages_per_s = windows >= 3 ? median(per_window)
                                   : static_cast<double>(served) / wall_s;
  for (ClientResult& r : results) {
    tally.attempted += r.attempted;
    for (std::string& f : r.failures) tally.fail(std::move(f));
    // Failures beyond the first few descriptions still count.
    const std::size_t described = r.failures.size();
    std::size_t failed = 0;
    for (double v : r.latency_us) failed += std::isinf(v) ? 1 : 0;
    for (std::size_t i = described; i < failed; ++i) tally.fail("scan failure");
    phase.latency_us.insert(phase.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
  }
  // Per-page latency; slot pages.size() holds failures of no page.
  std::vector<std::vector<double>> by_page(pages.size() + 1);
  for (const ClientResult& r : results) {
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      by_page[r.page[i]].push_back(r.latency_us[i]);
    }
  }
  for (const std::vector<double>& v : by_page) {
    if (v.empty()) continue;
    const bool failed = std::any_of(v.begin(), v.end(),
                                    [](double x) { return std::isinf(x); });
    phase.page_us.push_back(failed ? std::numeric_limits<double>::infinity()
                                   : median(v));
  }
  phase.stats = server.stats();
  return phase;
}

ScanCounts count_pass(const engine::Database& db,
                      const std::vector<Page>& pages) {
  ScanCounts n;
  engine::Scratch scratch;
  for (const Page& page : pages) {
    const engine::ScanOutcome outcome =
        engine::scan(db, page.normalized, scratch,
                     [](const engine::MatchEvent&) {
                       return engine::ScanDecision::Stop;
                     });
    const engine::ScanStats& st = scratch.stats();
    ++n.pages;
    n.raw_bytes += page.html.size();
    n.normalized_bytes += page.normalized.size();
    n.first_stage_hits += st.prefilter.first_stage_hits;
    n.survivors += st.prefilter.literal_survivors;
    n.candidates += st.candidates;
    n.confirmed += outcome.events;
    n.confirm_vm += st.confirmed_vm;
    n.automaton_routed += st.prefilter.fallback != match::PrefilterFallback::kNone;
  }
  return n;
}

}  // namespace kizzle::kbench
