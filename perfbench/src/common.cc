#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "base/string_pool.h"
#include "engine/cache.h"
#include "engine/executor.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "runtime/serialize.h"
#include "serve/json.h"
#include "xml/serializer.h"
#include "xmark/generator.h"

namespace pfbench {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Digest(std::string_view s) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", s.size(),
                static_cast<unsigned long long>(Fnv1a(s)));
  return buf;
}

uint64_t Rng::Next() {
  // splitmix64
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Shuffle(std::vector<int>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

std::vector<int> Slots(const std::vector<int>& counts, Rng* rng) {
  std::vector<int> out;
  for (size_t k = 0; k < counts.size(); ++k) {
    out.insert(out.end(), counts[k], static_cast<int>(k));
  }
  Shuffle(&out, rng);
  return out;
}

double PeakRssMb(int pid) {
  std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

std::string XMarkText(double sf, uint64_t doc_seed) {
  pathfinder::StringPool pool;
  auto doc = pathfinder::xmark::GenerateXMark(sf, doc_seed, &pool);
  if (!doc.ok()) {
    std::fprintf(stderr, "pfbench: xmark generation failed\n");
    std::exit(2);
  }
  return pathfinder::xml::SerializeDocument(*doc, pool);
}

std::string SameShapeValue(std::string_view old, Rng* rng) {
  auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  std::string out(old);
  for (size_t i = 0; i < out.size(); ++i) {
    char& c = out[i];
    if (is_digit(c)) {
      // The first digit of an integer part keeps its zero/nonzero-ness,
      // so "0.5" stays "0.d" and "508" never becomes "08".
      bool leads = (i == 0 || !is_digit(out[i - 1])) &&
                   (i == 0 || out[i - 1] != '.');
      if (!leads) {
        c = static_cast<char>('0' + rng->Below(10));
      } else if (c != '0') {
        c = static_cast<char>('1' + rng->Below(9));
      }
    } else if (c >= 'a' && c <= 'z') {
      c = static_cast<char>('a' + rng->Below(26));
    } else if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>('A' + rng->Below(26));
    }
  }
  return out;
}

bool LoadDigests(const std::string& path, Digests* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  out->q.assign(21, "");
  std::string key, val;
  while (in >> key >> val) {
    if (key == "doc") {
      out->doc = val;
    } else if (key.size() > 1 && key[0] == 'q') {
      int n = std::atoi(key.c_str() + 1);
      if (n >= 1 && n <= 20) out->q[n] = val;
    }
  }
  for (int n = 1; n <= 20; ++n) {
    if (out->q[n].empty()) {
      *err = path + ": no digest for q" + std::to_string(n);
      return false;
    }
  }
  return !out->doc.empty();
}

bool SaveDigests(const std::string& path, const Digests& d) {
  std::ostringstream os;
  os << "doc " << d.doc << "\n";
  for (int n = 1; n <= 20; ++n) os << "q" << n << " " << d.q[n] << "\n";
  return WriteFile(path, os.str());
}

void Json::Key(const char* key) {
  if (!first_) out_ += ',';
  first_ = false;
  if (key != nullptr) {
    pathfinder::serve::AppendJsonString(&out_, key);
    out_ += ':';
  }
}

Json& Json::Open(const char* key) {
  Key(key);
  out_ += '{';
  first_ = true;
  return *this;
}

Json& Json::Close() {
  out_ += '}';
  first_ = false;
  return *this;
}

Json& Json::OpenArr(const char* key) {
  Key(key);
  out_ += '[';
  first_ = true;
  return *this;
}

Json& Json::CloseArr() {
  out_ += ']';
  first_ = false;
  return *this;
}

Json& Json::Num(const char* key, double v) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out_ += buf;
  return *this;
}

Json& Json::Int(const char* key, int64_t v) {
  Key(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::Str(const char* key, std::string_view v) {
  Key(key);
  pathfinder::serve::AppendJsonString(&out_, v);
  return *this;
}

Json& Json::Bool(const char* key, bool v) {
  Key(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::NumArr(const char* key, const std::vector<double>& v) {
  OpenArr(key);
  for (double x : v) Num(nullptr, x);
  return CloseArr();
}

Json& Json::IntArr(const char* key, const std::vector<int64_t>& v) {
  OpenArr(key);
  for (int64_t x : v) Int(nullptr, x);
  return CloseArr();
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

int SpanRecorder::Begin(const char* name, int parent, int query) {
  spans_.push_back(Span{name, NowNs(), 0, parent, query});
  return static_cast<int>(spans_.size()) - 1;
}

std::string SpanRecorder::ToJson() const {
  Json j;
  j.OpenArr();
  for (const Span& s : spans_) {
    j.Open()
        .Str("name", s.name)
        .Int("start_ns", s.start_ns)
        .Int("end_ns", s.end_ns)
        .Int("parent", s.parent)
        .Int("query", s.query)
        .Close();
  }
  j.CloseArr();
  return j.str();
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) == 0) k = k.substr(2);
    kv_.emplace_back(k, argv[i + 1]);
  }
}

std::string Args::Get(const char* key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  std::fprintf(stderr, "pfbench: missing --%s\n", key);
  std::exit(2);
}

double Args::Num(const char* key) const {
  return std::strtod(Get(key).c_str(), nullptr);
}

void Counters::Write(Json* j) const {
  j->Open("counters")
      .IntArr("compiler.plan_ops", plan_ops)
      .IntArr("compiler.joins_recognized", joins)
      .IntArr("opt.ops_after", ops_after)
      .IntArr("opt.rounds", rounds)
      .IntArr("opt.cse_merges", cse_merges)
      .IntArr("opt.fragments", fragments)
      .IntArr("accel.nodes_scanned", nodes_scanned)
      .IntArr("accel.contexts_in", contexts_in)
      .IntArr("accel.contexts_pruned", contexts_pruned)
      .IntArr("accel.partitions_pruned", partitions_pruned)
      .IntArr("accel.structural_answers", structural_answers)
      .IntArr("runtime.result_bytes", result_bytes)
      .Close();
}

namespace pf = pathfinder;

pf::Result<std::string> TracedQuery(pf::xml::Database* db,
                                    const std::string& context_doc,
                                    const std::string& text,
                                    bool cache_annotate, SpanRecorder* rec,
                                    int qid, Counters* c) {
  const bool pipeline = pf::engine::PipelineDefault();
  pf::opt::OptimizeOptions oopts;
  oopts.cse = pf::opt::CseDefault();
  oopts.join_opt = pf::opt::JoinOptDefault();
  oopts.path_summary = pf::opt::PathSumDefault();
  oopts.db = db;

  int root = rec->Begin("query", -1, qid);
  int s = rec->Begin("frontend.parse", root, qid);
  auto mod = pf::frontend::ParseQuery(text);
  rec->End(s);
  if (!mod.ok()) return mod.status();

  s = rec->Begin("frontend.normalize", root, qid);
  pf::frontend::NormalizeOptions nopts;
  nopts.context_doc = context_doc;
  auto core = pf::frontend::Normalize(*mod, nopts);
  rec->End(s);
  if (!core.ok()) return core.status();

  s = rec->Begin("compiler.compile", root, qid);
  pf::compiler::CompileStats cstats;
  auto plan = pf::compiler::Compile(*core, db, {}, &cstats);
  rec->End(s);
  if (!plan.ok()) return plan.status();

  s = rec->Begin("opt.optimize", root, qid);
  pf::opt::OptimizeStats ostats;
  auto plan_opt = pf::opt::Optimize(*plan, &ostats, oopts);
  rec->End(s);
  if (!plan_opt.ok()) return plan_opt.status();

  pf::opt::PipelineStats pstats;
  if (pipeline) {
    s = rec->Begin("opt.pipeline", root, qid);
    pf::Status st = pf::opt::AnnotatePipelines(*plan_opt, &pstats);
    rec->End(s);
    if (!st.ok()) return st;
  }

  if (cache_annotate) {
    s = rec->Begin("engine.cache_annotate", root, qid);
    pf::engine::AnnotateCacheCandidates(*plan_opt, *db->pool());
    rec->End(s);
  }

  s = rec->Begin("engine.execute", root, qid);
  auto ctx = std::make_unique<pf::engine::QueryContext>(db);
  ctx->use_staircase = true;
  ctx->path_summary = oopts.path_summary;
  ctx->pipeline = pipeline;
  ctx->profile = false;
  ctx->SetNumThreads(0);
  ctx->tuning = ctx->tuning.Clamped();
  auto table = pf::engine::Execute(*plan_opt, ctx.get());
  rec->End(s);
  if (!table.ok()) return table.status();

  s = rec->Begin("runtime.to_sequence", root, qid);
  auto items = pf::runtime::TableToSequence(*table);
  rec->End(s);
  if (!items.ok()) return items.status();

  s = rec->Begin("runtime.serialize", root, qid);
  auto out = pf::runtime::SerializeSequence(*ctx, *items);
  rec->End(s);
  rec->End(root);
  if (!out.ok()) return out.status();
  if (c == nullptr) return out;

  const pf::accel::StaircaseStats& scj = ctx->scj_stats;
  c->plan_ops.push_back(static_cast<int64_t>(pf::algebra::CountOps(*plan)));
  c->joins.push_back(cstats.joins_recognized);
  c->ops_after.push_back(static_cast<int64_t>(ostats.ops_after));
  c->rounds.push_back(ostats.rounds);
  c->cse_merges.push_back(ostats.cse_merges);
  c->fragments.push_back(pstats.fragments);
  c->nodes_scanned.push_back(static_cast<int64_t>(scj.nodes_scanned));
  c->contexts_in.push_back(static_cast<int64_t>(scj.contexts_in));
  c->contexts_pruned.push_back(static_cast<int64_t>(scj.contexts_pruned));
  c->partitions_pruned.push_back(
      static_cast<int64_t>(scj.path_partitions_pruned));
  c->structural_answers.push_back(
      static_cast<int64_t>(scj.structural_answers));
  c->result_bytes.push_back(static_cast<int64_t>(out->size()));
  return out;
}

void SumOperatorTime(const pf::engine::OperatorProfile& p,
                     std::map<std::string, int64_t>* by_kind) {
  if (!p.shared_ref && !p.fused) {
    (*by_kind)[pf::algebra::OpKindName(p.kind)] += p.wall_ns;
  }
  for (const auto& c : p.children) SumOperatorTime(c, by_kind);
}

}  // namespace pfbench
