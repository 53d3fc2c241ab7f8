// cold_small / cold_large: XMark Q1-Q20 in seeded shuffled passes, one
// closed-loop client, plan and subplan caches off. Every result is
// checked byte for byte (by digest) against the navigational baseline.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/pathfinder.h"
#include "baseline/interp.h"
#include "base/thread_pool.h"
#include "common.h"
#include "xmark/queries.h"

namespace pfbench {

namespace pf = pathfinder;

namespace {

constexpr const char* kDocName = "auction.xml";

pf::QueryOptions ColdOptions() {
  pf::QueryOptions o;
  o.context_doc = kDocName;
  o.plan_cache = 0;
  o.subplan_cache = 0;
  return o;
}

}  // namespace

int RunCold(const Args& args) {
  const double sf = args.Num("sf");
  const uint64_t doc_seed = static_cast<uint64_t>(args.Num("doc-seed"));
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed"));
  const double seconds = args.Num("seconds");
  const bool trace = args.Num("trace") != 0;
  const int min_passes = static_cast<int>(args.Num("min-passes"));
  const std::string out_path = args.Get("out");
  const std::string spans_path = args.Get("spans");

  const std::string text = XMarkText(sf, doc_seed);
  Digests ref;
  std::string err;
  if (!LoadDigests(args.Get("digests"), &ref, &err)) {
    std::fprintf(stderr, "pfbench: %s\n", err.c_str());
    return 2;
  }
  if (ref.doc != Digest(text)) {
    std::fprintf(stderr,
                 "pfbench: generated document %s does not match the "
                 "digest file (%s); regenerate the digests\n",
                 Digest(text).c_str(), ref.doc.c_str());
    return 2;
  }

  const pf::QueryOptions opts = ColdOptions();
  pf::QueryOptions prof_opts = opts;
  prof_opts.profile = 1;

  Rng rng(seed);
  std::vector<int64_t> qs;
  std::vector<double> ms, run_wall_ms, setup_s;
  std::vector<std::string> mismatch_detail;
  int64_t failed = 0;
  SpanRecorder rec;
  Counters counters;
  std::map<std::string, int64_t> op_ns;
  std::unique_ptr<pf::xml::Database> db;

  // Every pass first makes the document queryable in a fresh Database:
  // that LoadXml is one set-up sample. Spreading the samples over the
  // run lets their median see the same host as the queries do; the
  // set-up time is left out of the measured seconds.
  int passes = 0;
  int64_t setup_ns = 0;
  const int64_t start = NowNs();
  auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - start - setup_ns) / 1e9;
  };
  while (elapsed_s() < seconds || passes < min_passes) {
    db.reset();
    db = std::make_unique<pf::xml::Database>();
    int64_t t0 = NowNs();
    auto frag = db->LoadXml(kDocName, text);
    int64_t t1 = NowNs();
    if (!frag.ok()) {
      std::fprintf(stderr, "pfbench: LoadXml: %s\n",
                   frag.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_ns += t1 - t0;
    pf::Pathfinder engine(db.get());

    std::vector<int> order;
    for (int q = 1; q <= 20; ++q) order.push_back(q);
    Shuffle(&order, &rng);
    for (int q : order) {
      const std::string qtext = pf::xmark::GetXMarkQuery(q).text;
      const int qid = static_cast<int>(qs.size());
      std::string result;
      bool ok = true;
      auto run_once = [&] {
        int64_t t0 = NowNs();
        auto r = engine.Run(qtext, opts);
        int64_t t1 = NowNs();
        if (!r.ok()) {
          ok = false;
          return;
        }
        auto s = r->Serialize();
        int64_t t2 = NowNs();
        if (!s.ok()) {
          ok = false;
          return;
        }
        result = std::move(*s);
        ms.push_back(static_cast<double>(t2 - t0) / 1e6);
        if (trace) run_wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      };
      std::string traced;
      auto traced_once = [&] {
        auto r = TracedQuery(db.get(), kDocName, qtext, false, &rec, qid,
                             &counters);
        if (!r.ok()) {
          ok = false;
          return;
        }
        traced = std::move(*r);
      };
      if (trace && qid % 2 == 1) traced_once();
      run_once();
      if (trace && qid % 2 == 0) traced_once();
      if (trace && ok) {
        auto p = engine.Run(qtext, prof_opts);
        if (!p.ok() || p->profile == nullptr) {
          ok = false;
        } else {
          SumOperatorTime(*p->profile, &op_ns);
        }
      }
      qs.push_back(q);
      if (!ok) {
        ++failed;
        if (ms.size() < qs.size()) ms.push_back(0);
        if (trace && run_wall_ms.size() < qs.size()) run_wall_ms.push_back(0);
        continue;
      }
      if (Digest(result) != ref.q[q]) {
        ++failed;
        mismatch_detail.push_back("q" + std::to_string(q) + " got " +
                                  Digest(result) + " want " + ref.q[q]);
      } else if (trace && traced != result) {
        ++failed;
        mismatch_detail.push_back("q" + std::to_string(q) +
                                  " traced layer calls differ from Run");
      }
    }
    ++passes;
  }
  const double measured_s = elapsed_s();
  const double peak_rss = PeakRssMb();
  const double storage =
      static_cast<double>(db->EncodingBytes() + db->PoolPayloadBytes()) /
      static_cast<double>(text.size());

  auto frag = db->FindDocument(kDocName);
  std::vector<double> load_ms;
  for (double s : setup_s) load_ms.push_back(s * 1e3);
  Json j;
  j.Open()
      .Str("workload_kind", "cold")
      .Int("engine_threads", pf::ThreadPool::DefaultNumThreads())
      .Str("build_type", PFBENCH_BUILD_TYPE)
      .Num("sf", sf)
      .Int("doc_seed", static_cast<int64_t>(doc_seed))
      .Int("xml_bytes", static_cast<int64_t>(text.size()))
      .Int("nodes", db->doc(*frag).num_nodes())
      .NumArr("setup_s", setup_s)
      .NumArr("load_ms", load_ms)
      .Num("encoding_mb", static_cast<double>(db->EncodingBytes()) / 1e6)
      .IntArr("q", qs)
      .NumArr("ms", ms)
      .Int("passes", passes)
      .Num("elapsed_s", measured_s)
      .Int("attempted", static_cast<int64_t>(qs.size()))
      .Int("failed", failed);
  j.OpenArr("mismatch_detail");
  for (const auto& m : mismatch_detail) j.Str(nullptr, m);
  j.CloseArr()
      .Num("peak_rss_mb", peak_rss)
      .Num("storage_ratio", storage);
  if (trace) {
    j.NumArr("run_wall_ms", run_wall_ms);
    counters.Write(&j);
    j.Open("op_ns");
    for (const auto& [k, v] : op_ns) j.Int(k.c_str(), v);
    j.Close();
    if (!WriteFile(spans_path, rec.ToJson())) {
      std::fprintf(stderr, "pfbench: cannot write %s\n", spans_path.c_str());
      return 2;
    }
  }
  j.Close();
  if (!WriteFile(out_path, j.str())) {
    std::fprintf(stderr, "pfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}

int RunMakeDigests(const Args& args) {
  const double sf = args.Num("sf");
  const uint64_t doc_seed = static_cast<uint64_t>(args.Num("doc-seed"));
  const int threads = kClients;
  const std::string text = XMarkText(sf, doc_seed);
  Digests d;
  d.doc = Digest(text);
  d.q.assign(21, "");
  std::vector<std::string> errors(21);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      pf::xml::Database db;
      if (!db.LoadXml(kDocName, text).ok()) return;
      pf::baseline::Baseline base(&db);
      pf::baseline::BaselineOptions bo;
      bo.context_doc = kDocName;
      for (int q = 1 + t; q <= 20; q += threads) {
        int64_t t0 = NowNs();
        auto r = base.Run(pf::xmark::GetXMarkQuery(q).text, bo);
        auto s = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
        if (!s.ok()) {
          errors[q] = s.status().ToString();
          continue;
        }
        d.q[q] = Digest(*s);
        std::fprintf(stderr, "q%d %s %.1f s\n", q, d.q[q].c_str(),
                     static_cast<double>(NowNs() - t0) / 1e9);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int q = 1; q <= 20; ++q) {
    if (d.q[q].empty()) {
      std::fprintf(stderr, "pfbench: baseline q%d failed: %s\n", q,
                   errors[q].c_str());
      return 2;
    }
  }
  if (!SaveDigests(args.Get("out"), d)) return 2;
  return 0;
}

}  // namespace pfbench
