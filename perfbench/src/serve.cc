// serve_read / serve_churn: a pf_serve child holding several XMark
// documents, driven over its wire protocol by a fixed-rate open loop of
// Q1-Q20 queries on Zipf-popular documents, mixed (serve_churn) with
// node-level updates to the most popular ones. After the stream drains,
// every document is fetched over the wire, re-shredded in a private
// Database, and the 20 queries' wire results are compared with the
// navigational baseline on that re-shred; every result the stream got on
// a read-only document must equal that baseline too.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pathfinder.h"
#include "baseline/interp.h"
#include "base/string_pool.h"
#include "base/thread_pool.h"
#include "common.h"
#include "mirror.h"
#include "serve/client.h"
#include "serve/json.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/serializer.h"
#include "xml/update.h"

namespace pfbench {

namespace pf = pathfinder;

namespace {

// --- wire plumbing -----------------------------------------------------

using pf::serve::Client;
using pf::serve::JsonValue;

/// A client connection with Nagle off, so that frames sent back to back
/// on one connection leave at once; false if the server is unreachable.
bool Connect(int port, Client* c) {
  if (!c->Connect(port).ok()) return false;
  int one = 1;
  setsockopt(c->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

/// One request and its reply; true iff the reply parsed and is ok.
bool Call(Client* c, const std::string& frame, JsonValue* resp) {
  auto r = c->Call(frame, 60000);
  if (!r.ok()) return false;
  *resp = std::move(*r);
  const JsonValue* ok = resp->Find("ok");
  return ok != nullptr && ok->AsBool();
}

/// A string or number member of a reply ("" / 0 if absent).
std::string Str(const JsonValue& v, const char* key) {
  const JsonValue* m = v.Find(key);
  return m == nullptr ? std::string() : std::string(m->AsString());
}
double Num(const JsonValue& v, const char* key) {
  const JsonValue* m = v.Find(key);
  return m == nullptr ? 0.0 : m->AsNumber();
}

/// The pf_serve child: started with an ephemeral port, stopped with
/// SIGTERM (graceful drain), always reaped.
class ServerProcess {
 public:
  ~ServerProcess() { Kill(); }
  bool Start(const std::string& path) {
    int out[2];
    if (pipe(out) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      execl(path.c_str(), path.c_str(), "--port", "0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    out_fd_ = out[0];
    std::string text;
    char buf[512];
    while (text.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 30000) <= 0) return false;
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      text.append(buf, static_cast<size_t>(n));
    }
    size_t at = text.find("127.0.0.1:");
    if (at == std::string::npos) return false;
    port_ = std::atoi(text.c_str() + at + 10);
    return port_ > 0;
  }
  int port() const { return port_; }
  int pid() const { return pid_; }
  /// SIGTERM and wait; true iff the server drained and exited 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    pid_t r;
    do {
      r = waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

std::string UpdateFrame(const std::string& id, const std::string& doc,
                        const UpdateOp& u) {
  switch (u.kind) {
    case UpdateOp::kReplace:
      return Client::UpdateFrame(id, doc, "replace", u.target, -1, {},
                                 u.value);
    case UpdateOp::kInsert:
      return Client::UpdateFrame(id, doc, "insert", u.target, -1, u.xml);
    case UpdateOp::kDelete:
      break;
  }
  return Client::UpdateFrame(id, doc, "delete", u.target);
}

std::string DocName(int d) { return "doc" + std::to_string(d) + ".xml"; }

// --- the op stream -----------------------------------------------------

struct Op {
  int64_t due_ns = 0;  // offset from the stream start
  bool update = false;
  int doc = 0;
  int q = 0;  // query number (queries)
  UpdateOp u;
  int conn = 0;
  int prev_update = -1;  // previous update op on the same document
};

struct Outcome {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  double server_ms = 0;
  std::string digest;  // of a query's result
  bool done = false;
  bool ok = false;
};

/// `n` split by `weights`, largest remainders first (sums to n exactly).
std::vector<int> Apportion(int n, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<int> counts;
  std::vector<std::pair<double, size_t>> rest;
  int given = 0;
  for (size_t k = 0; k < weights.size(); ++k) {
    double exact = n * weights[k] / total;
    counts.push_back(static_cast<int>(exact));
    given += counts.back();
    rest.emplace_back(counts.back() - exact, k);
  }
  std::sort(rest.begin(), rest.end());
  for (int i = 0; i < n - given; ++i) ++counts[rest[i].second];
  return counts;
}

/// Fixed-rate schedule: op i is due at i / rate. The mix is exact and
/// only its order is drawn from the seed, so runs differ in order, not
/// in composition: round(n * update_share) updates, spread evenly over
/// the written documents (the first mirrors->size(), which are the most
/// popular), round(updates * structural_share) of them structural
/// inserts/deletes drawn from the document's mirror, the rest
/// content-only replaces; queries run Q1..Q20 in shuffled rounds (each
/// query once per 20) on all `docs` documents in Zipf(1) popularity
/// proportions.
std::vector<Op> MakeStream(uint64_t seed, double rate, double seconds,
                           int docs, double update_share,
                           double structural_share,
                           std::vector<Mirror>* mirrors) {
  const int written = static_cast<int>(mirrors->size());
  const int n = static_cast<int>(std::ceil(rate * seconds));
  const int updates = static_cast<int>(std::lround(n * update_share));
  const int structural =
      static_cast<int>(std::lround(updates * structural_share));
  std::vector<double> zipf, uniform(written, 1.0);
  for (int d = 0; d < docs; ++d) zipf.push_back(1.0 / (d + 1));
  Rng rng(seed ^ 0xC4u);
  const std::vector<int> is_update = Slots({n - updates, updates}, &rng);
  const std::vector<int> query_doc = Slots(Apportion(n - updates, zipf), &rng);
  const std::vector<int> update_doc = Slots(Apportion(updates, uniform), &rng);
  const std::vector<int> is_structural =
      Slots({updates - structural, structural}, &rng);
  std::vector<int> last_update(written, -1);
  std::vector<int> bag;
  size_t nq = 0, nu = 0;
  std::vector<Op> ops(n);
  for (int i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.due_ns = static_cast<int64_t>(1e9 * i / rate);
    op.update = is_update[i] != 0;
    if (op.update) {
      op.doc = update_doc[nu];
      op.u = (*mirrors)[op.doc].Next(is_structural[nu++] != 0, &rng);
      op.conn = op.doc % kClients;
      op.prev_update = last_update[op.doc];
      last_update[op.doc] = i;
    } else {
      op.doc = query_doc[nq++];
      if (bag.empty()) {
        for (int q = 1; q <= 20; ++q) bag.push_back(q);
        Shuffle(&bag, &rng);
      }
      op.q = bag.back();
      bag.pop_back();
      op.conn = i % kClients;
    }
  }
  return ops;
}

// --- the in-process replay (traced run) -------------------------------

struct Replay {
  int64_t queries = 0, plan_hits = 0, sub_hits = 0, sub_misses = 0,
          admitted = 0, rejects = 0;
  double resident_mb_sum = 0;
  pf::engine::CacheStats last;
  double run_ms = 0, serialize_ms = 0;
  int64_t plan_ops = 0, joins = 0, ops_after = 0, rounds = 0, cse = 0,
          fragments = 0, scanned = 0, ctx_in = 0, ctx_pruned = 0,
          partitions = 0, structural = 0, result_bytes = 0;
  std::map<std::string, int64_t> op_ns;
  std::vector<double> update_ms, load_ms;
  SpanRecorder spans;  // the layer calls of plan-cache misses
  int64_t attempted = 0, failed = 0;
};

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

/// Replays the op stream in order through Pathfinder::Run (process
/// default options, caches on, profile on) and xml::ApplyUpdate. For
/// plan-cache misses the layer calls are made once more on the side
/// (TracedQuery), so front-half means count hits as zero; their result
/// must equal Run's.
void RunReplay(const std::vector<std::string>& texts,
               const std::vector<Op>& ops, Replay* r) {
  pf::xml::Database db;
  for (size_t d = 0; d < texts.size(); ++d) {
    ++r->attempted;
    int64_t t0 = NowNs();
    if (!db.LoadXml(DocName(static_cast<int>(d)), texts[d]).ok()) {
      ++r->failed;
    }
    r->load_ms.push_back(MsSince(t0));
  }
  pf::Pathfinder engine(&db);
  for (const Op& op : ops) {
    ++r->attempted;
    const std::string name = DocName(op.doc);
    if (op.update) {
      pf::xml::NodeUpdate u;
      u.target = op.u.target;
      u.kind = op.u.kind == UpdateOp::kReplace
                   ? pf::xml::NodeUpdate::Kind::kReplaceValue
                   : op.u.kind == UpdateOp::kInsert
                         ? pf::xml::NodeUpdate::Kind::kInsertChild
                         : pf::xml::NodeUpdate::Kind::kDelete;
      u.value = op.u.value;
      u.xml = op.u.xml;
      int64_t t0 = NowNs();
      auto res = pf::xml::ApplyUpdate(&db, name, u);
      r->update_ms.push_back(MsSince(t0));
      if (!res.ok() || res->nodes_after != op.u.nodes_after) ++r->failed;
      continue;
    }
    pf::QueryOptions qo;
    qo.context_doc = name;
    qo.profile = 1;
    const std::string text = pf::xmark::GetXMarkQuery(op.q).text;
    int64_t t0 = NowNs();
    auto res = engine.Run(text, qo);
    double wall = MsSince(t0);
    if (!res.ok()) {
      ++r->failed;
      continue;
    }
    const int qid = static_cast<int>(r->queries++);
    r->run_ms += wall;
    r->plan_hits += res->plan_cache_hit ? 1 : 0;
    r->sub_hits += res->subplan_cache_hits;
    r->sub_misses += res->subplan_cache_misses;
    r->admitted += res->subplan_cache_admitted;
    r->rejects += res->subplan_cache_rejects;
    r->last = res->cache_stats;
    r->resident_mb_sum +=
        static_cast<double>(res->cache_stats.plan.bytes +
                            res->cache_stats.subplan.bytes) / 1e6;
    r->plan_ops += static_cast<int64_t>(pf::algebra::CountOps(res->plan));
    r->joins += res->compile_stats.joins_recognized;
    r->ops_after += static_cast<int64_t>(res->opt_stats.ops_after);
    r->rounds += res->opt_stats.rounds;
    r->cse += res->opt_stats.cse_merges;
    r->fragments += res->pipeline_stats.fragments;
    r->scanned += static_cast<int64_t>(res->scj_stats.nodes_scanned);
    r->ctx_in += static_cast<int64_t>(res->scj_stats.contexts_in);
    r->ctx_pruned += static_cast<int64_t>(res->scj_stats.contexts_pruned);
    r->partitions +=
        static_cast<int64_t>(res->scj_stats.path_partitions_pruned);
    r->structural += static_cast<int64_t>(res->scj_stats.structural_answers);
    if (res->profile != nullptr) SumOperatorTime(*res->profile, &r->op_ns);
    int64_t ser0 = NowNs();
    auto bytes = res->Serialize();
    r->serialize_ms += MsSince(ser0);
    if (!bytes.ok()) {
      ++r->failed;
      continue;
    }
    r->result_bytes += static_cast<int64_t>(bytes->size());
    if (res->plan_cache_hit) continue;
    auto traced = TracedQuery(&db, name, text, true, &r->spans, qid, nullptr);
    if (!traced.ok() || *traced != *bytes) ++r->failed;
  }
}

}  // namespace

int RunServe(const Args& args) {
  const std::string server = args.Get("server");
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed"));
  const double seconds = args.Num("seconds");
  const double rate = args.Num("rate");
  const bool trace = args.Num("trace") != 0;
  const int docs = static_cast<int>(args.Num("docs"));
  const int write_docs = static_cast<int>(args.Num("write-docs"));
  const double sf = args.Num("sf");
  const int setups = static_cast<int>(args.Num("setups"));
  const double update_share = args.Num("update-share");
  const double structural_share = args.Num("structural-share");
  const std::string out_path = args.Get("out");
  const std::string spans_path = args.Get("spans");
  if (update_share > 0 && write_docs < 1) {
    std::fprintf(stderr, "pfbench: updates need --write-docs >= 1\n");
    return 2;
  }

  std::vector<std::pair<const char*, double>> phases;
  int64_t phase_t0 = NowNs();
  auto phase = [&](const char* name) {
    int64_t now = NowNs();
    phases.emplace_back(name, static_cast<double>(now - phase_t0) / 1e9);
    phase_t0 = now;
  };

  // Inputs: documents with distinct generator seeds (fixed, like XMark's
  // own generator), mirrors of the written ones, and the op stream drawn
  // from --seed against the mirrors.
  std::vector<std::string> texts;
  std::vector<Mirror> mirrors;
  for (int d = 0; d < docs; ++d) {
    pf::StringPool pool;
    auto doc = pf::xmark::GenerateXMark(sf, d + 1, &pool);
    if (!doc.ok()) return 2;
    texts.push_back(pf::xml::SerializeDocument(*doc, pool));
    if (d < write_docs) mirrors.emplace_back(*doc, pool);
  }
  const std::vector<Op> ops = MakeStream(seed, rate, seconds, docs,
                                         update_share, structural_share,
                                         &mirrors);
  mirrors.clear();
  phase("generate");

  // Set-up: server start plus registering every document. Half of the
  // set-ups run before the stream (the last one serves it), the rest
  // after the checks, so their median spans the run.
  std::vector<double> setup_s;
  ServerProcess proc;
  auto set_up = [&]() -> bool {
    int64_t t0 = NowNs();
    if (!proc.Start(server)) {
      std::fprintf(stderr, "pfbench: cannot start %s\n", server.c_str());
      return false;
    }
    Client c;
    if (!Connect(proc.port(), &c)) return false;
    JsonValue resp;
    for (int d = 0; d < docs; ++d) {
      if (!Call(&c, Client::RegisterFrame(DocName(d), texts[d]), &resp)) {
        std::fprintf(stderr, "pfbench: register failed\n");
        return false;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return true;
  };
  const int setups_before = std::max(1, setups / 2);
  for (int i = 0; i < setups_before; ++i) {
    if (i > 0 && !proc.Stop()) {
      std::fprintf(stderr, "pfbench: pf_serve did not drain cleanly\n");
      return 2;
    }
    if (!set_up()) return 2;
  }
  phase("setup");

  // The open loop.
  std::vector<Outcome> outcomes(ops.size());
  std::vector<std::unique_ptr<Client>> cs;
  for (int c = 0; c < kClients; ++c) {
    cs.push_back(std::make_unique<Client>());
    if (!Connect(proc.port(), cs.back().get())) return 2;
  }
  std::mutex mu;
  std::condition_variable acked;
  std::atomic<int64_t> dropped{0};
  const int64_t start = NowNs() + 50'000'000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {  // sender
      for (size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (op.conn != c) continue;
        int64_t due = start + op.due_ns;
        int64_t now = NowNs();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        if (op.prev_update >= 0) {
          // Updates of one document apply in stream order: the mirror
          // drew this target assuming the previous one was applied.
          std::unique_lock<std::mutex> lock(mu);
          acked.wait_for(lock, std::chrono::seconds(30), [&] {
            return outcomes[op.prev_update].done;
          });
        }
        std::string id = "o" + std::to_string(i);
        std::string frame =
            op.update ? UpdateFrame(id, DocName(op.doc), op.u)
                      : Client::QueryFrame(id, pf::xmark::GetXMarkQuery(op.q).text,
                                           DocName(op.doc));
        {
          std::lock_guard<std::mutex> lock(mu);
          outcomes[i].send_ns = NowNs();
        }
        if (!cs[c]->SendLine(frame).ok()) break;
      }
    });
    threads.emplace_back([&, c] {  // reader
      size_t expected = 0;
      for (const Op& op : ops) expected += op.conn == c ? 1 : 0;
      for (size_t got = 0; got < expected; ++got) {
        auto line = cs[c]->ReadLine(60000);
        if (!line.ok()) {
          dropped += static_cast<int64_t>(expected - got);
          break;
        }
        int64_t now = NowNs();
        auto resp = pf::serve::ParseJson(*line);
        if (!resp.ok()) continue;
        const std::string id = Str(*resp, "id");
        size_t i = id.size() > 1 ? std::strtoull(id.c_str() + 1, nullptr, 10)
                                 : ops.size();
        if (i >= ops.size()) continue;
        const JsonValue* okv = resp->Find("ok");
        bool ok = okv != nullptr && okv->AsBool();
        if (ok && ops[i].update) {
          ok = static_cast<uint32_t>(Num(*resp, "nodes_after")) ==
               ops[i].u.nodes_after;
        }
        const double server_ms = Num(*resp, "ms");
        std::string digest = ops[i].update ? "" : Digest(Str(*resp, "result"));
        if (server_ms > 2000) {
          std::fprintf(stderr,
                       "pfbench: slow op %zu doc%d Q%d due %.2f s ms %.1f\n",
                       i, ops[i].doc, ops[i].q, ops[i].due_ns / 1e9,
                       server_ms);
        }
        std::lock_guard<std::mutex> lock(mu);
        outcomes[i].recv_ns = now;
        outcomes[i].server_ms = server_ms;
        outcomes[i].digest = std::move(digest);
        outcomes[i].ok = ok;
        outcomes[i].done = true;
        acked.notify_all();
      }
      // Wake any sender still waiting on an acknowledgement.
      std::lock_guard<std::mutex> lock(mu);
      acked.notify_all();
    });
  }
  for (auto& t : threads) t.join();
  int64_t last_recv = start;
  for (const Outcome& o : outcomes) last_recv = std::max(last_recv, o.recv_ns);

  phase("stream");
  Client ctl;
  JsonValue stats;
  if (!Connect(proc.port(), &ctl) ||
      !Call(&ctl, Client::StatsFrame(), &stats)) {
    std::fprintf(stderr, "pfbench: stats verb failed\n");
    return 2;
  }
  const double server_rss = PeakRssMb(proc.pid());

  // Verification: fetch every document, then its 20 wire results, over
  // kClients connections in parallel.
  std::vector<std::string> fetched(docs);
  std::vector<std::vector<std::string>> wire(docs,
                                             std::vector<std::string>(21));
  std::atomic<int64_t> verify_failed{0};
  {
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kClients; ++t) {
      pool.emplace_back([&] {
        Client c;
        if (!Connect(proc.port(), &c)) {
          verify_failed += 1;
          return;
        }
        JsonValue resp;
        for (int d = next++; d < docs; d = next++) {
          if (!Call(&c, Client::QueryFrame("fetch", "/", DocName(d)), &resp)) {
            verify_failed += 21;
            continue;
          }
          fetched[d] = Str(resp, "result");
          for (int q = 1; q <= 20; ++q) {
            if (!Call(&c,
                      Client::QueryFrame("v", pf::xmark::GetXMarkQuery(q).text,
                                         DocName(d)),
                      &resp)) {
              verify_failed += 1;
              continue;
            }
            wire[d][q] = Str(resp, "result");
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  cs.clear();
  ctl.Close();
  bool drained = proc.Stop();
  phase("fetch");
  std::vector<int64_t> mismatches(docs, 0);
  std::vector<std::string> mismatch_detail;
  std::vector<std::vector<std::string>> base_digest(
      docs, std::vector<std::string>(21));
  std::vector<double> storage(docs, 0), encoding(docs, 0);
  {
    std::vector<std::thread> pool;
    std::atomic<int> next{0};
    for (int t = 0; t < kClients; ++t) {
      pool.emplace_back([&] {
        for (int d = next++; d < docs; d = next++) {
          if (fetched[d].empty()) continue;
          pf::xml::Database db;
          if (!db.LoadXml("auction.xml", fetched[d]).ok()) {
            mismatches[d] = 20;
            continue;
          }
          encoding[d] = static_cast<double>(db.EncodingBytes());
          storage[d] = encoding[d] + static_cast<double>(db.PoolPayloadBytes());
          pf::baseline::Baseline base(&db);
          pf::baseline::BaselineOptions bo;
          bo.context_doc = "auction.xml";
          for (int q = 1; q <= 20; ++q) {
            auto r = base.Run(pf::xmark::GetXMarkQuery(q).text, bo);
            auto s = r.ok() ? r->Serialize()
                            : pf::Result<std::string>(r.status());
            if (s.ok()) base_digest[d][q] = Digest(*s);
            if (!s.ok() || *s != wire[d][q]) {
              ++mismatches[d];
              std::lock_guard<std::mutex> lock(mu);
              mismatch_detail.push_back(
                  DocName(d) + " q" + std::to_string(q) + ": baseline " +
                  (s.ok() ? Digest(*s) : s.status().ToString()) +
                  ", wire " + Digest(wire[d][q]));
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  // A read-only document never changes, so every result the stream got
  // on it must equal the baseline's. (On a written document the expected
  // result depends on the snapshot the query saw; only the final state
  // is checked.)
  int64_t stream_mismatches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Outcome& o = outcomes[i];
    if (op.update || op.doc < write_docs || !o.ok) continue;
    if (o.digest != base_digest[op.doc][op.q]) {
      ++stream_mismatches;
      mismatch_detail.push_back("stream op " + std::to_string(i) + " " +
                                DocName(op.doc) + " q" +
                                std::to_string(op.q) + ": baseline " +
                                base_digest[op.doc][op.q] + ", wire " +
                                o.digest);
    }
  }
  double storage_bytes = 0, fetched_bytes = 0, encoding_bytes = 0;
  int64_t mismatch_total = stream_mismatches;
  for (int d = 0; d < docs; ++d) {
    storage_bytes += storage[d];
    encoding_bytes += encoding[d];
    fetched_bytes += static_cast<double>(fetched[d].size());
    mismatch_total += mismatches[d];
  }
  phase("verify");

  for (int i = setups_before; i < setups; ++i) {
    if (!set_up()) return 2;
    drained = proc.Stop() && drained;
  }
  phase("setup_after");

  Replay replay;
  if (trace) {
    RunReplay(texts, ops, &replay);
    phase("replay");
    if (!WriteFile(spans_path, replay.spans.ToJson())) {
      std::fprintf(stderr, "pfbench: cannot write %s\n", spans_path.c_str());
      return 2;
    }
  }

  // Raw samples.
  std::vector<double> q_ms, u_ms, late_ms, run_ms, outside_ms;
  std::vector<int64_t> q_num, u_structural;
  int64_t op_failed = 0, q_ok = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Outcome& o = outcomes[i];
    if (!o.done || !o.ok) {
      ++op_failed;
      continue;
    }
    double lat = static_cast<double>(o.recv_ns - (start + op.due_ns)) / 1e6;
    late_ms.push_back(static_cast<double>(o.send_ns - (start + op.due_ns)) /
                      1e6);
    if (op.update) {
      u_ms.push_back(lat);
      u_structural.push_back(op.u.structural() ? 1 : 0);
    } else {
      ++q_ok;
      q_ms.push_back(lat);
      q_num.push_back(op.q);
      run_ms.push_back(o.server_ms);
      outside_ms.push_back(static_cast<double>(o.recv_ns - o.send_ns) / 1e6 -
                           o.server_ms);
    }
  }
  size_t xml_bytes = 0;
  for (const auto& t : texts) xml_bytes += t.size();

  Json j;
  j.Open()
      .Str("workload_kind", "serve")
      .Int("engine_threads", pf::ThreadPool::DefaultNumThreads())
      .Str("build_type", PFBENCH_BUILD_TYPE)
      .Num("sf", sf)
      .Int("docs", docs)
      .Int("write_docs", write_docs)
      .Int("xml_bytes", static_cast<int64_t>(xml_bytes / docs))
      .Num("rate", rate)
      .NumArr("setup_s", setup_s)
      .IntArr("q", q_num)
      .NumArr("ms", q_ms)
      .NumArr("update_ms", u_ms)
      .IntArr("update_structural", u_structural)
      .NumArr("late_ms", late_ms)
      .NumArr("server_run_ms", run_ms)
      .NumArr("outside_run_ms", outside_ms)
      .Num("elapsed_s", static_cast<double>(last_recv - start) / 1e9)
      .Int("queries_ok", q_ok)
      .Int("attempted", static_cast<int64_t>(ops.size()) + docs * 20 +
                            replay.attempted)
      .Int("failed", op_failed + verify_failed.load() + mismatch_total +
                         (drained ? 0 : 1) + replay.failed)
      .Int("dropped", dropped.load())
      .Int("mismatches", mismatch_total)
      .Bool("drained", drained);
  j.OpenArr("mismatch_detail");
  for (const auto& m : mismatch_detail) j.Str(nullptr, m);
  j.CloseArr().Open("phase_s");
  for (const auto& [name, secs] : phases) j.Num(name, secs);
  j.Close()
      .Num("peak_rss_mb", server_rss)
      .Num("storage_ratio", storage_bytes / fetched_bytes)
      .Num("encoding_mb", encoding_bytes / docs / 1e6)
      .Int("busy_rejects", static_cast<int64_t>(Num(stats, "busy_rejects")))
      .Int("timeouts", static_cast<int64_t>(Num(stats, "timeouts")))
      .Int("server_failed", static_cast<int64_t>(Num(stats, "failed")));
  if (trace) {
    const double n = replay.queries > 0 ? static_cast<double>(replay.queries)
                                        : 1.0;
    j.Open("replay")
        .Int("queries", replay.queries)
        .Int("failed", replay.failed)
        .Num("plan_hit_ratio", replay.plan_hits / n)
        .Num("subplan_hit_ratio",
             static_cast<double>(replay.sub_hits) /
                 std::max<int64_t>(1, replay.sub_hits + replay.sub_misses))
        .Num("admit_ratio",
             static_cast<double>(replay.admitted) /
                 std::max<int64_t>(1, replay.admitted + replay.rejects))
        .Int("evictions",
             replay.last.plan.evictions + replay.last.subplan.evictions)
        .Int("per_doc_invalidations", replay.last.per_doc_invalidations)
        .Num("resident_mb", replay.resident_mb_sum / n)
        .Num("run_ms", replay.run_ms / n)
        .Num("serialize_ms", replay.serialize_ms / n)
        .Num("plan_ops", replay.plan_ops / n)
        .Num("joins_recognized", replay.joins / n)
        .Num("ops_after", replay.ops_after / n)
        .Num("rounds", replay.rounds / n)
        .Num("cse_merges", replay.cse / n)
        .Num("fragments", replay.fragments / n)
        .Num("nodes_scanned", replay.scanned / n)
        .Num("contexts_in", replay.ctx_in / n)
        .Num("contexts_pruned", replay.ctx_pruned / n)
        .Num("partitions_pruned", replay.partitions / n)
        .Num("structural_answers", replay.structural / n)
        .Num("result_bytes", replay.result_bytes / n)
        .NumArr("update_ms", replay.update_ms)
        .NumArr("load_ms", replay.load_ms);
    j.Open("op_ns");
    for (const auto& [k, v] : replay.op_ns) j.Int(k.c_str(), v);
    j.Close().Close();
  }
  j.Close();
  if (!WriteFile(out_path, j.str())) return 2;
  return 0;
}

}  // namespace pfbench
