// Shared helpers of the pfbench binary: clocks, digests, seeded
// randomness, the generated XMark input, the raw-sample JSON writer, the
// in-memory span recorder and the traced layer calls.
#ifndef PFBENCH_COMMON_H_
#define PFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/pathfinder.h"
#include "engine/profile.h"

namespace pfbench {

/// Client threads and connections of every workload (at most nproc = 4).
constexpr int kClients = 4;

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 64-bit FNV-1a; with the byte length it is the digest the output
/// checks compare ("<len>:<16 hex digits>").
uint64_t Fnv1a(std::string_view s);
std::string Digest(std::string_view s);

/// Deterministic on every platform (std distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Fisher-Yates with Rng.
void Shuffle(std::vector<int>* v, Rng* rng);

/// `counts[k]` copies of k in seeded order: an exact mix, drawn order.
std::vector<int> Slots(const std::vector<int>& counts, Rng* rng);

/// VmHWM of a process in MB (pid 0 = this process); -1 if unreadable.
double PeakRssMb(int pid = 0);

/// The XMark instance of (sf, doc_seed) as XML text.
std::string XMarkText(double sf, uint64_t doc_seed);

/// Replace a leaf value by a random one of the same lexical shape: every
/// digit becomes a digit (a leading one stays nonzero), every letter a
/// letter of the same case, everything else is kept. Integers stay
/// integers, decimals keep their scale, words stay words.
std::string SameShapeValue(std::string_view old, Rng* rng);

/// Baseline digests of Q1..Q20 for one generated document:
/// the file holds "doc <digest>" then "q<N> <digest>" lines.
struct Digests {
  std::string doc;
  std::vector<std::string> q;  // index 1..20
};
bool LoadDigests(const std::string& path, Digests* out, std::string* err);
bool SaveDigests(const std::string& path, const Digests& d);

/// Minimal JSON text builder for the raw-sample report.
class Json {
 public:
  Json& Open(const char* key = nullptr);   // '{'
  Json& Close();                           // '}'
  Json& OpenArr(const char* key = nullptr);  // '['
  Json& CloseArr();
  Json& Num(const char* key, double v);
  Json& Int(const char* key, int64_t v);
  Json& Str(const char* key, std::string_view v);
  Json& Bool(const char* key, bool v);
  Json& NumArr(const char* key, const std::vector<double>& v);
  Json& IntArr(const char* key, const std::vector<int64_t>& v);
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key);
  std::string out_;
  bool first_ = true;
};

bool WriteFile(const std::string& path, const std::string& data);

/// One span of the traced run: a layer call made by the benchmark.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the recorder, -1 = root
  int query;   // query id the span belongs to
};

/// Spans are kept in memory and written when the run ends.
class SpanRecorder {
 public:
  int Begin(const char* name, int parent, int query);
  void End(int idx) { spans_[idx].end_ns = NowNs(); }
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
};

/// Per-query counters of the traced layer calls.
struct Counters {
  std::vector<int64_t> plan_ops, joins, ops_after, rounds, cse_merges,
      fragments, nodes_scanned, contexts_in, contexts_pruned,
      partitions_pruned, structural_answers, result_bytes;
  void Write(Json* j) const;  // as the "counters" object
};

/// The layer calls Pathfinder::Run makes for a plan-cache miss on
/// `context_doc`, in its order and with the options it resolves, each
/// wrapped in one span of query `qid`: parse, normalize, compile,
/// optimize, pipeline annotation, cache annotation (if
/// `cache_annotate`, as Run does with a cache on), execute (no cache),
/// to-sequence and serialize. Returns the serialized result; `c` may be
/// null.
pathfinder::Result<std::string> TracedQuery(pathfinder::xml::Database* db,
                                            const std::string& context_doc,
                                            const std::string& text,
                                            bool cache_annotate,
                                            SpanRecorder* rec, int qid,
                                            Counters* c);

/// Adds each operator's own wall time (shared references and fused
/// operators excluded) to its kind name.
void SumOperatorTime(const pathfinder::engine::OperatorProfile& p,
                     std::map<std::string, int64_t>* by_kind);

/// Command-line arguments as --key value pairs. Every key is required:
/// a missing one ends the program with exit code 2.
class Args {
 public:
  Args(int argc, char** argv);
  std::string Get(const char* key) const;
  double Num(const char* key) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

int RunCold(const Args& args);
int RunServe(const Args& args);
int RunMakeDigests(const Args& args);

}  // namespace pfbench

#endif  // PFBENCH_COMMON_H_
