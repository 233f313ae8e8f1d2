// Seeded fuzzing of the kernel front end and the HLS passes.
//
// Mutants of examples/kernels/* and of the small solver's generated
// ldlsolve and ldlfactor kernels go through parse_kernel: swapped tokens,
// swapped terms, duplicated statements, changed operators and reused
// operands such as `t + t`, plus a sweep of the `t*r + t` shape.  A mutant
// may be rejected with CheckError.  One that parses must survive both FMA
// styles, dot insertion and reassociation with a valid graph after each
// pass; every graph must schedule ASAP and with the list scheduler at 39
// FMA units under an independent dependency and budget check; and every
// transformed graph must evaluate to the untransformed graph's outputs
// within FmaInsert.SemanticsPreserved's tolerance, widened by the
// untransformed graph's own rounding-error bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "hls/dot_insert.hpp"
#include "hls/fma_insert.hpp"
#include "hls/interp.hpp"
#include "hls/reassociate.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace csfma {
namespace {

constexpr int kFmaBudget = 39;  // the paper's shared FMA units (Sec. IV-D)

std::vector<std::string> corpus() {
  std::vector<std::string> out;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(CSFMA_KERNEL_DIR))
    if (e.path().extension() == ".kernel") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::stringstream ss;
    ss << in.rdbuf();
    out.push_back(ss.str());
  }
  const BenchmarkSolver small = make_benchmark_solver("small", 4);
  out.push_back(small.ldlsolve_src);
  out.push_back(small.ldlfactor_src);
  return out;
}

struct Span {
  std::size_t begin, end;  // token range [begin, end)
};

struct Statement {
  Span lhs, rhs;
  std::vector<Span> primaries;  // x, x[3] or a number, in source order
  std::vector<Span> terms;      // operands of the top-level + and -
};

bool ends_operand(Tok t) {
  return t == Tok::Ident || t == Tok::Number || t == Tok::RBracket ||
         t == Tok::RParen;
}

/// Assignments of a token stream: an identifier after '{' or ';'.
std::vector<Statement> statements(const std::vector<Token>& toks) {
  std::vector<Statement> out;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Ident) continue;
    if (toks[i - 1].kind != Tok::Semicolon && toks[i - 1].kind != Tok::LBrace)
      continue;
    std::size_t eq = i, semi;
    while (eq < toks.size() && toks[eq].kind != Tok::Assign &&
           toks[eq].kind != Tok::Semicolon)
      ++eq;
    if (eq == toks.size() || toks[eq].kind != Tok::Assign) continue;
    semi = eq + 1;
    while (semi < toks.size() && toks[semi].kind != Tok::Semicolon) ++semi;
    if (semi == toks.size() || semi == eq + 1) continue;
    Statement s{{i, eq}, {eq + 1, semi}, {}, {}};
    int depth = 0;
    std::size_t term = s.rhs.begin;
    for (std::size_t j = s.rhs.begin; j < semi; ++j) {
      const Tok k = toks[j].kind;
      if (k == Tok::LParen) ++depth;
      if (k == Tok::RParen) --depth;
      if (depth == 0 && (k == Tok::Plus || k == Tok::Minus) && j > term &&
          ends_operand(toks[j - 1].kind)) {
        s.terms.push_back({term, j});
        term = j + 1;
      }
      if (k == Tok::Number) s.primaries.push_back({j, j + 1});
      if (k == Tok::Ident) {
        const bool indexed = j + 3 < semi &&
                             toks[j + 1].kind == Tok::LBracket &&
                             toks[j + 3].kind == Tok::RBracket;
        s.primaries.push_back({j, indexed ? j + 4 : j + 1});
        if (indexed) j += 3;  // the index is not an operand
      }
    }
    s.terms.push_back({term, semi});
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Token> copy(const std::vector<Token>& toks, Span s) {
  return {toks.begin() + (std::ptrdiff_t)s.begin,
          toks.begin() + (std::ptrdiff_t)s.end};
}

/// Replace span `s` of `toks` with `with`.
void splice(std::vector<Token>& toks, Span s, const std::vector<Token>& with) {
  toks.erase(toks.begin() + (std::ptrdiff_t)s.begin,
             toks.begin() + (std::ptrdiff_t)s.end);
  toks.insert(toks.begin() + (std::ptrdiff_t)s.begin, with.begin(), with.end());
}

/// Exchange two disjoint spans, a before b.
void swap_spans(std::vector<Token>& toks, Span a, Span b) {
  const auto ta = copy(toks, a), tb = copy(toks, b);
  splice(toks, b, ta);
  splice(toks, a, tb);
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.next_below(v.size())];
}

/// One mutation of statement `at`.  Statements are re-read after every
/// mutation, since spans shift.
void mutate(Rng& rng, std::vector<Token>& toks, std::size_t at) {
  const auto all = statements(toks);
  const Statement& s = all.at(at);
  if (s.primaries.empty()) return;
  switch (rng.next_below(8)) {
    case 0: {  // swap two tokens of the expression
      const std::size_t n = s.rhs.end - s.rhs.begin;
      std::swap(toks[s.rhs.begin + rng.next_below(n)],
                toks[s.rhs.begin + rng.next_below(n)]);
      break;
    }
    case 1:
    case 2: {  // swap two terms of the sum
      if (s.terms.size() < 2) break;
      std::size_t a = rng.next_below(s.terms.size());
      std::size_t b = rng.next_below(s.terms.size() - 1);
      if (b >= a) ++b;
      if (a > b) std::swap(a, b);
      swap_spans(toks, s.terms[a], s.terms[b]);
      break;
    }
    case 3:
    case 4:
    case 5: {  // reuse an operand (this statement's or an earlier value)
      // over another operand, and half the time as one more term too:
      // the t + t and t*r + t shapes that count uses.
      std::vector<Token> src = copy(toks, pick(rng, s.primaries));
      if (at > 0 && rng.next_bool())
        src = copy(toks, all[rng.next_below(at)].lhs);
      if (rng.next_bool()) {
        std::vector<Token> term = src;
        term.insert(term.begin(), rng.next_bool()
                                      ? Token{Tok::Plus, "+", 0.0, 0}
                                      : Token{Tok::Minus, "-", 0.0, 0});
        splice(toks, {s.rhs.end, s.rhs.end}, term);
      }
      splice(toks, pick(rng, s.primaries), src);
      break;
    }
    case 6: {  // duplicate another statement's expression into this one
      splice(toks, s.rhs, copy(toks, pick(rng, all).rhs));
      break;
    }
    default: {  // change an operator
      std::vector<std::size_t> ops;
      for (std::size_t j = s.rhs.begin; j < s.rhs.end; ++j) {
        const Tok k = toks[j].kind;
        if (k == Tok::Plus || k == Tok::Minus || k == Tok::Star ||
            k == Tok::Slash)
          ops.push_back(j);
      }
      if (ops.empty()) break;
      static const char* const kText[] = {"+", "-", "*", "/"};
      static const Tok kKind[] = {Tok::Plus, Tok::Minus, Tok::Star, Tok::Slash};
      const std::size_t op = pick(rng, ops), k = rng.next_below(4);
      toks[op].kind = kKind[k];
      toks[op].text = kText[k];
      break;
    }
  }
}

std::string render(const std::vector<Token>& toks) {
  std::string out;
  for (const Token& t : toks) {
    out += t.text;
    out += t.kind == Tok::Semicolon || t.kind == Tok::LBrace ? "\n" : " ";
  }
  return out;
}

/// The t*r + t sweep, one mutant per statement `y = t op1 a*b op2 ...` whose
/// first term is one operand t and whose second is a product: t moves to
/// the end of the sum and replaces the product's first factor, giving
/// `y = t*b op2 ... op1 t`.  A product t is then both a factor of a fused
/// leaf and a leaf of the same sum, which is where use counts go wrong.
std::vector<std::string> reuse_sweep(const std::string& src) {
  const std::vector<Token> toks = lex_kernel(src);
  std::vector<std::string> out;
  for (const Statement& s : statements(toks)) {
    if (s.terms.size() < 2 || s.primaries.size() < 2) continue;
    const Span t = s.terms[0], product = s.terms[1];
    if (s.primaries[0].begin != t.begin || s.primaries[0].end != t.end ||
        s.primaries[1].begin != product.begin)
      continue;
    const Span factor = s.primaries[1];
    if (factor.end == product.end || toks[factor.end].kind != Tok::Star)
      continue;
    std::vector<Token> rhs = copy(toks, t);
    const std::vector<Token> rest = copy(toks, {factor.end, s.rhs.end});
    rhs.insert(rhs.end(), rest.begin(), rest.end());
    rhs.push_back(toks[t.end]);  // op1
    const std::vector<Token> tt = copy(toks, t);
    rhs.insert(rhs.end(), tt.begin(), tt.end());
    std::vector<Token> m = toks;
    splice(m, s.rhs, rhs);
    out.push_back(render(m));
  }
  return out;
}

/// A mutant: one to eight mutations, half of them on one statement.
std::string make_mutant(Rng& rng, const std::string& src) {
  std::vector<Token> toks = lex_kernel(src);
  const std::size_t n = statements(toks).size();
  if (n == 0) return src;
  const std::size_t focus = rng.next_below(n);
  const int k = (int)rng.next_int(1, 8);
  for (int i = 0; i < k; ++i)
    mutate(rng, toks, rng.next_bool() ? focus : rng.next_below(n));
  return render(toks);
}

int latency_of(const Cdfg& g, const OperatorLibrary& lib, int id) {
  const Node& n = g.node(id);
  if (n.kind == OpKind::Dot) return lib.dot_attr(n.arity() / 2).latency;
  return lib.attr(n.kind, n.style).latency;
}

/// Independent re-check of a schedule: every operand is available when its
/// user starts, the length covers every result, and at most `fma_budget`
/// FMAs issue per cycle (0 = unlimited).  Returns "" when it holds.
std::string check_schedule(const Cdfg& g, const OperatorLibrary& lib,
                           const Schedule& s, int fma_budget) {
  int length = 0;
  std::map<int, int> fma_issues;
  std::ostringstream why;
  for (int id : g.live_nodes()) {
    const int start = s.start[(std::size_t)id];
    if (start < 0) {
      why << "node " << id << " unscheduled";
      return why.str();
    }
    for (int a : g.node(id).args)
      if (start < s.start[(std::size_t)a] + latency_of(g, lib, a)) {
        why << "node " << id << " starts before operand " << a << " is ready";
        return why.str();
      }
    length = std::max(length, start + latency_of(g, lib, id));
    if (g.node(id).kind == OpKind::Fma && ++fma_issues[start] > fma_budget &&
        fma_budget > 0) {
      why << "too many FMAs issued in cycle " << start;
      return why.str();
    }
  }
  if (length != s.length) return "schedule length does not cover the results";
  return "";
}

/// A binary64 value with the magnitude of its terms and a first-order
/// bound on its rounding error.
struct Bounded {
  double value = 0, magnitude = 0, error = 0;
};

/// Evaluates a graph of discrete operators, bounding each result's
/// rounding error for any association of its sums: an add may round by
/// u times the magnitude of all its terms.  Fused and reassociated graphs
/// round no more often, so they land within a small multiple of this
/// bound of the exact value; an ill-conditioned output (cancellation, a
/// division by a value within its own error) gets a wide bound instead of
/// failing the comparison.
std::map<std::string, Bounded> evaluate_with_error_bound(
    const Cdfg& g, const std::map<std::string, double>& in) {
  constexpr double u = 0x1p-53;
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<Bounded> v((std::size_t)g.num_nodes());
  std::map<std::string, Bounded> out;
  for (int id : g.topo_order()) {
    const Node& n = g.node(id);
    const auto arg = [&](int i) {
      return v[(std::size_t)n.args[(std::size_t)i]];
    };
    Bounded& r = v[(std::size_t)id];
    switch (n.kind) {
      case OpKind::Input:
        r.value = in.at(n.name);
        r.magnitude = std::abs(r.value);
        break;
      case OpKind::Const:
        r.value = n.const_value;
        r.magnitude = std::abs(r.value);
        break;
      case OpKind::Output:
        r = arg(0);
        out[n.name] = r;
        break;
      case OpKind::Neg:
        r = arg(0);
        r.value = -r.value;
        break;
      case OpKind::Add:
      case OpKind::Sub: {
        const Bounded x = arg(0), y = arg(1);
        r.value = n.kind == OpKind::Add ? x.value + y.value : x.value - y.value;
        r.magnitude = x.magnitude + y.magnitude;
        r.error = x.error + y.error + u * r.magnitude;
        break;
      }
      case OpKind::Mul: {
        const Bounded x = arg(0), y = arg(1);
        r.value = x.value * y.value;
        r.magnitude = x.magnitude * y.magnitude;
        r.error = x.error * std::abs(y.value) + y.error * std::abs(x.value) +
                  x.error * y.error + u * r.magnitude;
        break;
      }
      case OpKind::Div: {
        const Bounded x = arg(0), y = arg(1);
        const double den = std::abs(y.value) - y.error;
        r.value = x.value / y.value;
        r.magnitude = den > 0 ? x.magnitude / den : inf;
        r.error = den > 0 ? (x.error + std::abs(r.value) * y.error) / den +
                                u * std::abs(r.value)
                          : inf;
        break;
      }
      default:
        ADD_FAILURE() << "a parsed kernel holds a " << to_string(n.kind);
    }
  }
  return out;
}

struct FuzzStats {
  int parsed = 0, rejected = 0, outputs_compared = 0, outputs_unbounded = 0;
};

/// Runs one mutant through the flow; returns "" or what went wrong.
std::string check_mutant(const std::string& src, const OperatorLibrary& lib,
                         Rng& rng, FuzzStats* stats) {
  KernelInfo k;
  try {
    k = parse_kernel(src);
  } catch (const CheckError&) {
    ++stats->rejected;
    return "";
  }
  ++stats->parsed;
  std::string stage = "validate parsed";
  try {
    const Cdfg& base = k.graph;
    base.validate();
    const std::pair<const char*, std::function<void(Cdfg&)>> passes[] = {
        {"pcs", [&](Cdfg& g) { insert_fma_units(g, lib, FmaStyle::Pcs); }},
        {"fcs", [&](Cdfg& g) { insert_fma_units(g, lib, FmaStyle::Fcs); }},
        {"dot", [&](Cdfg& g) { insert_dot_products(g, lib); }},
        {"reassociate", [&](Cdfg& g) { reassociate_sums(g, lib); }}};
    std::vector<std::pair<const char*, Cdfg>> graphs;
    graphs.emplace_back("parsed", base);
    for (const auto& [name, pass] : passes) {
      stage = name;
      Cdfg g = base;
      pass(g);
      g.validate();
      graphs.emplace_back(name, std::move(g));
    }
    ResourceLimits limits;
    limits.fma = kFmaBudget;
    for (const auto& [name, g] : graphs) {
      stage = std::string(name) + " asap";
      std::string why = check_schedule(g, lib, schedule_asap(g, lib), 0);
      if (why.empty()) {
        stage = std::string(name) + " list";
        why = check_schedule(g, lib, schedule_list(g, lib, limits), kFmaBudget);
      }
      if (!why.empty()) return stage + ": " + why;
    }
    // Small nonzero integers keep most sums and products exact.
    std::map<std::string, double> in;
    for (int id : base.live_nodes())
      if (base.node(id).kind == OpKind::Input)
        in[base.node(id).name] =
            (double)rng.next_int(1, 4) * (rng.next_bool() ? 1 : -1);
    stage = "evaluate parsed";
    const auto want = evaluate_with_error_bound(base, in);
    for (const auto& [out, v] : Evaluator(base).run(in)) {
      const double w = want.at(out).value;
      if (!(v == w || (std::isnan(v) && std::isnan(w))))
        return stage + ": the interpreter and the bound disagree on " + out;
    }
    for (std::size_t i = 1; i < graphs.size(); ++i) {
      stage = std::string("evaluate ") + graphs[i].first;
      const auto got = Evaluator(graphs[i].second).run(in);
      for (const auto& [out, w] : want) {
        // FmaInsert.SemanticsPreserved's tolerance, widened by a multiple
        // of the untransformed graph's own rounding-error bound.
        const double tol = std::abs(w.value) * 1e-12 + 1e-300 + 16 * w.error;
        if (!std::isfinite(w.value) || !std::isfinite(tol)) {
          ++stats->outputs_unbounded;
          continue;
        }
        ++stats->outputs_compared;
        const double v = got.at(out);
        if (!(std::abs(v - w.value) <= tol)) {
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        ": output %s = %.17g, untransformed %.17g (bound %.3g)",
                        out.c_str(), v, w.value, w.error);
          return stage + buf;
        }
      }
    }
  } catch (const std::exception& e) {
    return stage + ": " + e.what();
  }
  return "";
}

TEST(KernelFuzz, MutantsAreRejectedOrSurviveTheFlow) {
  const std::vector<std::string> sources = corpus();
  ASSERT_GE(sources.size(), 3u);
  const OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  Rng rng(0x6b65726e656cULL);
  FuzzStats stats;
  constexpr int kMutants = 350;
  std::vector<std::string> mutants;
  for (const std::string& src : sources)
    for (std::string& m : reuse_sweep(src)) mutants.push_back(std::move(m));
  ASSERT_FALSE(mutants.empty());
  for (int i = 0; i < kMutants; ++i)
    mutants.push_back(
        make_mutant(rng, sources[(std::size_t)i % sources.size()]));
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const std::string why = check_mutant(mutants[i], lib, rng, &stats);
    ASSERT_TRUE(why.empty()) << "mutant " << i << ": " << why << "\n"
                             << mutants[i];
  }
  // The fuzzer must reach the passes, not only the parser's errors, and
  // compare most outputs.
  EXPECT_GE(stats.parsed, kMutants / 4);
  EXPECT_GE(stats.rejected, kMutants / 20);
  EXPECT_LE(stats.outputs_unbounded, stats.outputs_compared / 10);
  std::printf("%zu mutants: %d parsed, %d rejected; %d outputs compared, %d "
              "unbounded\n",
              mutants.size(), stats.parsed, stats.rejected,
              stats.outputs_compared, stats.outputs_unbounded);
}

}  // namespace
}  // namespace csfma
