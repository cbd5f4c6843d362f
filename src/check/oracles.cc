#include "check/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>

#include "analysis/activity.h"
#include "analysis/static_gate.h"
#include "ckpt/serialize.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "expr/batch_jit.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "gp/evaluator.h"
#include "grad/adjoint.h"
#include "tag/derivation.h"

namespace gmr::check {
namespace {

/// Samples the per-case evaluation contexts. Derived from the case seed
/// (offset so the stream differs from the one that generated the tree), so
/// a counterexample replays from the seed alone.
std::vector<std::vector<double>> SampleContexts(const ExprCase& c,
                                                const OracleContext& ctx) {
  Rng rng(CaseSeed(c.seed, 0x5eed5eedULL));
  std::vector<std::vector<double>> contexts;
  contexts.reserve(static_cast<std::size_t>(ctx.contexts_per_case));
  for (int i = 0; i < ctx.contexts_per_case; ++i) {
    contexts.push_back(RandomVariables(*ctx.config, rng));
  }
  return contexts;
}

expr::EvalContext MakeEvalContext(const std::vector<double>& vars,
                                  const std::vector<double>& params) {
  expr::EvalContext ec;
  ec.variables = vars.data();
  ec.num_variables = vars.size();
  ec.parameters = params.data();
  ec.num_parameters = params.size();
  return ec;
}

/// Lengths of the proper prefixes a parser oracle truncates a printed form
/// of `size` characters to: every one when there are at most 64, otherwise
/// 64 evenly spaced cut points.
std::vector<std::size_t> PrefixCuts(std::size_t size) {
  constexpr std::size_t kMaxCuts = 64;
  const std::size_t cuts = std::min(size, kMaxCuts);
  std::vector<std::size_t> lengths;
  lengths.reserve(cuts);
  for (std::size_t i = 0; i < cuts; ++i) lengths.push_back(i * size / cuts);
  return lengths;
}

/// True when a Parse error ends "at position N" with N <= `length`.
bool ErrorPositionWithin(const std::string& error, std::size_t length) {
  constexpr std::string_view kMarker = " at position ";
  const std::size_t at = error.rfind(kMarker);
  std::size_t position = 0;
  return at != std::string::npos &&
         ParseUnsigned(std::string_view(error).substr(at + kMarker.size()),
                       &position) &&
         position <= length;
}

std::string DescribeDisagreement(const char* backend, const ExprCase& c,
                                 const std::vector<double>& vars, double got,
                                 double want) {
  std::ostringstream out;
  out.precision(17);
  out << backend << " disagrees on " << expr::ToString(*c.tree) << ": got "
      << got << ", interpreter " << want << " (ulps "
      << UlpDistance(got, want) << "), vars [";
  for (std::size_t i = 0; i < vars.size(); ++i) {
    out << (i ? ", " : "") << vars[i];
  }
  out << "], seed " << c.seed;
  return out.str();
}

/// The analysis environment of a case: config variable domains, parameters
/// pinned to the case's actual values. Pinning keeps the interval claims
/// checkable against the very vector the runtime uses (and keeps corpus
/// replays sound even for parameter vectors outside the priors).
analysis::DomainEnv CaseDomains(const ExprCase& c, const OracleContext& ctx) {
  analysis::DomainEnv env;
  env.variables = ctx.config->domains.variables;
  env.parameters.reserve(c.parameters.size());
  for (double p : c.parameters) {
    env.parameters.push_back(analysis::Interval::Point(p));
  }
  return env;
}

/// A pointer-distinct copy of `node`: structurally equal, sharing no node.
expr::ExprPtr DeepCopy(const expr::ExprPtr& node) {
  switch (node->kind()) {
    case expr::NodeKind::kConstant:
      return expr::Constant(node->value());
    case expr::NodeKind::kParameter:
      return expr::Parameter(node->slot(), node->name());
    case expr::NodeKind::kVariable:
      return expr::Variable(node->slot(), node->name());
    default:
      break;
  }
  if (node->children().size() == 1) {
    return expr::MakeUnary(node->kind(), DeepCopy(node->children()[0]));
  }
  return expr::MakeBinary(node->kind(), DeepCopy(node->children()[0]),
                          DeepCopy(node->children()[1]));
}

/// Bit-for-bit agreement, -0.0 against 0.0 included; any NaN matches any
/// NaN (which payload an operator propagates is the compiler's choice).
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

OracleResult CheckVmAgrees(const ExprCase& c, const OracleContext& ctx) {
  const expr::CompiledProgram program = expr::Compile(*c.tree);
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double want = expr::EvalExpr(*c.tree, ec);
    const double got = program.Run(ec);
    if (!WithinUlps(got, want, 0)) {
      return OracleResult::Fail(DescribeDisagreement("vm", c, vars, got, want));
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckSimplifiedVmAgrees(const ExprCase& c,
                                     const OracleContext& ctx) {
  const expr::ExprPtr simplified = expr::Simplify(c.tree);
  const expr::CompiledProgram program = expr::Compile(*simplified);
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double want = expr::EvalExpr(*c.tree, ec);
    const double got = program.Run(ec);
    // Finite-only comparison: commutative canonicalization may reorder
    // min/max operands, whose kernel is not NaN-symmetric.
    if (!std::isfinite(want) || !std::isfinite(got)) continue;
    if (!WithinUlps(got, want, 0)) {
      return OracleResult::Fail(
          DescribeDisagreement("simplified-vm", c, vars, got, want));
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckSystemVmAgrees(const ExprCase& c, const OracleContext& ctx) {
  // 8-11 roots compiled together: the case tree, one of its operand
  // subtrees (pointer-shared with root 0, so the same nodes flatten twice),
  // and fresh trees drawn from the case seed; then planted repeats that
  // value numbering must share: a pointer-distinct copy of the case tree,
  // x - copy(x) over root 1, and zero literals of both signs (equal
  // literals share a register, -0.0 and 0.0 must not). The variable slots
  // past a drawn state count are held: the program runs in rollout form,
  // one Bind, two Hold calls, and two or more Runs per Hold that change
  // only the states.
  Rng rng(CaseSeed(c.seed, 0x5157e3ULL));
  std::vector<expr::ExprPtr> roots = {c.tree};
  const int extra = rng.UniformInt(1, 4);
  for (int i = 0; i < extra; ++i) {
    roots.push_back(i == 0 && !c.tree->IsLeaf() ? c.tree->children()[0]
                                                : RandomExpr(*ctx.config, rng));
  }
  for (expr::ExprPtr planted :
       {DeepCopy(c.tree), expr::Sub(roots[1], DeepCopy(roots[1])),
        expr::Constant(-0.0), expr::Constant(0.0),
        expr::Add(expr::Constant(-0.0), expr::Constant(-0.0)),
        expr::Add(expr::Constant(0.0), expr::Constant(-0.0))}) {
    roots.push_back(std::move(planted));
  }
  std::vector<const expr::Expr*> pointers;
  for (const expr::ExprPtr& root : roots) pointers.push_back(root.get());
  // Pin the parameter region to the case's vector, padded with zeros when
  // a fresh root references a slot a shrunk corpus case no longer carries.
  std::vector<double> parameters = c.parameters;
  parameters.resize(
      std::max(parameters.size(), expr::LayoutOf(pointers).num_parameters),
      0.0);
  const std::vector<std::vector<double>> contexts = SampleContexts(c, ctx);
  if (contexts.empty()) return OracleResult::Pass();
  const std::size_t num_variables = contexts[0].size();
  const auto num_states = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int>(num_variables)));
  const expr::CompiledProgram program = expr::Compile(
      roots,
      expr::TapeLayout{num_variables, parameters.size(), num_states});
  program.Bind(parameters.data(), parameters.size());
  std::vector<double> out(roots.size(), 0.0);
  const std::size_t runs_per_hold =
      std::max<std::size_t>(2, contexts.size() / 2);
  for (std::size_t hold = 0; hold < 2; ++hold) {
    std::vector<double> vars = contexts[hold % contexts.size()];
    program.Hold(vars.data(), vars.size());
    for (std::size_t run = 0; run < runs_per_hold; ++run) {
      const std::vector<double>& states =
          contexts[(hold * runs_per_hold + run + 1) % contexts.size()];
      std::copy_n(states.begin(), num_states, vars.begin());
      program.Run(vars.data(), vars.size(), out.data());
      const auto ec = MakeEvalContext(vars, parameters);
      for (std::size_t r = 0; r < roots.size(); ++r) {
        const double want = expr::EvalExpr(*roots[r], ec);
        if (!SameBits(out[r], want)) {
          std::ostringstream detail;
          detail.precision(17);
          detail << "system-vm root " << r << " of " << roots.size()
                 << " disagrees on " << expr::ToString(*roots[r])
                 << " with " << num_states << " of " << num_variables
                 << " variables as states: got " << out[r]
                 << ", interpreter " << want << " (seed " << c.seed << ")";
          return OracleResult::Fail(detail.str());
        }
      }
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckBatchJitAgrees(const ExprCase& c, const OracleContext& ctx) {
  if (!expr::JitAvailable()) return OracleResult::Pass();
  // Private session + breaker: fuzz-volume compiles must never trip the
  // run-wide breaker, and the session dlcloses when the case ends.
  expr::JitCircuitBreaker breaker;
  expr::BatchJitSession session(&breaker);
  const auto fns = session.CompileBatch({c.tree.get()});
  if (fns[0] == nullptr) {
    return OracleResult::Fail("batch jit compile failed on " +
                              expr::ToString(*c.tree));
  }
  for (const auto& vars : SampleContexts(c, ctx)) {
    const double want =
        expr::EvalExpr(*c.tree, MakeEvalContext(vars, c.parameters));
    const double got = fns[0](vars.data(), c.parameters.data());
    if (!WithinUlps(got, want, ctx.jit_ulps)) {
      return OracleResult::Fail(
          DescribeDisagreement("batch-jit", c, vars, got, want));
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckRoundTrip(const ExprCase& c, const OracleContext& ctx) {
  const std::string once = expr::ToString(*c.tree);
  const expr::SymbolTable symbols = SymbolsOf(*ctx.config);
  const expr::ParseResult reparsed = expr::Parse(once, symbols);
  if (!reparsed.ok()) {
    return OracleResult::Fail("printed form does not reparse: '" + once +
                              "': " + reparsed.error);
  }
  const std::string twice = expr::ToString(*reparsed.expr);
  if (twice != once) {
    return OracleResult::Fail("print is not a parser fixpoint: '" + once +
                              "' reprints as '" + twice + "'");
  }
  // A truncated form parses or fails with a position inside the prefix.
  for (const std::size_t length : PrefixCuts(once.size())) {
    const std::string prefix = once.substr(0, length);
    const expr::ParseResult partial = expr::Parse(prefix, symbols);
    if (!partial.ok() && !ErrorPositionWithin(partial.error, length)) {
      return OracleResult::Fail("prefix '" + prefix + "' of '" + once +
                                "' fails without a position inside it: '" +
                                partial.error + "'");
    }
  }
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double want = expr::EvalExpr(*c.tree, ec);
    const double got = expr::EvalExpr(*reparsed.expr, ec);
    if (!WithinUlps(got, want, 0)) {
      return OracleResult::Fail(
          DescribeDisagreement("reparsed tree", c, vars, got, want));
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckCkptRoundTrip(const ExprCase& c, const OracleContext& ctx) {
  const std::string once = ckpt::SerializeExpr(*c.tree);
  std::string error;
  const expr::ExprPtr reparsed = ckpt::ParseExprLine(once, &error);
  if (reparsed == nullptr) {
    return OracleResult::Fail("ckpt line does not reparse: '" + once +
                              "': " + error);
  }
  const std::string twice = ckpt::SerializeExpr(*reparsed);
  if (twice != once) {
    return OracleResult::Fail("ckpt codec is not an exact fixpoint: '" +
                              once + "' re-serializes as '" + twice + "'");
  }
  // A truncated line parses or fails with an error.
  for (const std::size_t length : PrefixCuts(once.size())) {
    const std::string prefix = once.substr(0, length);
    std::string partial_error;
    if (ckpt::ParseExprLine(prefix, &partial_error) == nullptr &&
        partial_error.empty()) {
      return OracleResult::Fail("prefix '" + prefix + "' of '" + once +
                                "' fails without an error");
    }
  }
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double want = expr::EvalExpr(*c.tree, ec);
    const double got = expr::EvalExpr(*reparsed, ec);
    if (!WithinUlps(got, want, 0)) {
      return OracleResult::Fail(
          DescribeDisagreement("ckpt-reparsed tree", c, vars, got, want));
    }
  }
  std::vector<double> parameters;
  if (!ckpt::ParseDoubles(ckpt::SerializeDoubles(c.parameters),
                          &parameters) ||
      parameters.size() != c.parameters.size()) {
    return OracleResult::Fail("parameter vector does not round-trip (seed " +
                              std::to_string(c.seed) + ")");
  }
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    // Bit compare, not ==: NaN payloads and signed zeros must survive too.
    if (ckpt::HexDouble(parameters[i]) != ckpt::HexDouble(c.parameters[i])) {
      return OracleResult::Fail(
          "parameter " + std::to_string(i) + " bits changed in round trip (" +
          ckpt::HexDouble(c.parameters[i]) + " -> " +
          ckpt::HexDouble(parameters[i]) + ", seed " + std::to_string(c.seed) +
          ")");
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckIntervalSound(const ExprCase& c, const OracleContext& ctx) {
  const analysis::DomainEnv env = CaseDomains(c, ctx);
  const analysis::Interval interval = analysis::EvaluateInterval(*c.tree, env);
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double v = expr::EvalExpr(*c.tree, ec);
    if (std::isnan(v)) {
      if (!interval.maybe_nan) {
        return OracleResult::Fail(
            "interval " + analysis::FormatInterval(interval) +
            " claims NaN-free but " + expr::ToString(*c.tree) +
            " evaluated to NaN (seed " + std::to_string(c.seed) + ")");
      }
      continue;
    }
    if (!interval.Contains(v)) {
      std::ostringstream out;
      out.precision(17);
      out << "interval " << analysis::FormatInterval(interval)
          << " does not contain runtime value " << v << " of "
          << expr::ToString(*c.tree) << " (seed " << c.seed << ")";
      return OracleResult::Fail(out.str());
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckGateSound(const ExprCase& c, const OracleContext& ctx) {
  analysis::StaticGateConfig gate;
  gate.enabled = true;
  gate.domains = CaseDomains(c, ctx);
  gate.saturation_rate = ctx.saturation_rate;
  const analysis::StaticVerdict verdict =
      analysis::AnalyzeCandidate({c.tree}, gate);
  if (!verdict.reject) return OracleResult::Pass();
  // The gate claims doom is a theorem: every reachable value is -inf, or
  // every reachable value saturates the clamp. Sampled runtime values must
  // bear that out.
  for (const auto& vars : SampleContexts(c, ctx)) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const double v = expr::EvalExpr(*c.tree, ec);
    if (std::isfinite(v) && v < ctx.saturation_rate) {
      std::ostringstream out;
      out.precision(17);
      out << "gate rejected (" << verdict.reason << ") but "
          << expr::ToString(*c.tree) << " evaluated to ordinary " << v
          << " (seed " << c.seed << ")";
      return OracleResult::Fail(out.str());
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckActivitySound(const ExprCase& c, const OracleContext& ctx) {
  // Activity is analyzed over the config's parameter *boxes* (not the
  // case's pinned values): an inactive verdict then claims independence
  // from the slot across its whole admissible range, which is exactly what
  // the perturbation below exercises. Slots beyond the declared boxes are
  // modeled as unbounded (conservative: they are never reported inactive
  // through a pruning guard that needs finiteness).
  analysis::DomainEnv env;
  env.variables = ctx.config->domains.variables;
  env.parameters = ctx.config->domains.parameters;
  env.parameters.resize(c.parameters.size(), analysis::Interval::All());
  const analysis::Activity activity = analysis::AnalyzeActivity(*c.tree, env);
  const std::vector<int> inactive = analysis::InactiveParameters(
      activity, static_cast<int>(c.parameters.size()));
  if (inactive.empty()) return OracleResult::Pass();
  // Perturb every provably-inactive slot to an independent in-box value;
  // the evaluation must not move by a single bit on any sampled context.
  Rng rng(CaseSeed(c.seed, 0xac7111f7ULL));
  std::vector<double> perturbed = c.parameters;
  for (const int slot : inactive) {
    perturbed[static_cast<std::size_t>(slot)] =
        SampleInterval(env.parameters[static_cast<std::size_t>(slot)], rng);
  }
  for (const auto& vars : SampleContexts(c, ctx)) {
    const double want =
        expr::EvalExpr(*c.tree, MakeEvalContext(vars, c.parameters));
    const double got =
        expr::EvalExpr(*c.tree, MakeEvalContext(vars, perturbed));
    if (ckpt::HexDouble(got) != ckpt::HexDouble(want)) {
      std::ostringstream out;
      out.precision(17);
      out << "perturbing provably-inactive parameter slots [";
      for (std::size_t i = 0; i < inactive.size(); ++i) {
        out << (i ? ", " : "") << inactive[i];
      }
      out << "] changed " << expr::ToString(*c.tree) << " from " << want
          << " to " << got << " (seed " << c.seed << ")";
      return OracleResult::Fail(out.str());
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckGradcheck(const ExprCase& c, const OracleContext& ctx) {
  const std::size_t num_params = c.parameters.size();
  // Same env model as the activity oracle: variable domains from the
  // config, parameter *boxes* (so pruning verdicts quantify over the
  // admissible range), unbounded beyond the declared slots.
  analysis::DomainEnv env;
  env.variables = ctx.config->domains.variables;
  env.parameters = ctx.config->domains.parameters;
  env.parameters.resize(num_params, analysis::Interval::All());
  const std::vector<int> inactive = analysis::InactiveParameters(
      analysis::AnalyzeActivity(*c.tree, env),
      static_cast<int>(num_params));
  const std::vector<std::vector<double>> contexts = SampleContexts(c, ctx);
  if (contexts.empty()) return OracleResult::Pass();
  const std::size_t num_vars = contexts[0].size();
  const expr::Expr* roots[] = {c.tree.get()};
  const expr::TapeLayout layout{num_vars, num_params,
                                std::min(env.variables.size(), num_vars)};
  const grad::GradientProgram full_program(roots, layout, nullptr);
  const grad::GradientProgram pruned_program(roots, layout, &env);

  const auto fail = [&c](const std::string& what) {
    std::ostringstream out;
    out.precision(17);
    out << what << " on " << expr::ToString(*c.tree) << " (seed " << c.seed
        << ")";
    return OracleResult::Fail(out.str());
  };

  for (const auto& vars : contexts) {
    const auto ec = MakeEvalContext(vars, c.parameters);
    const grad::ExprGradient full = grad::Differentiate(full_program, ec);
    const grad::ExprGradient pruned = grad::Differentiate(pruned_program, ec);
    const double want = expr::EvalExpr(*c.tree, ec);
    const double f0 = full.value;
    if (ckpt::HexDouble(f0) != ckpt::HexDouble(want) ||
        ckpt::HexDouble(pruned.value) != ckpt::HexDouble(want)) {
      return fail("gradient program value disagrees with interpreter: got " +
                  std::to_string(f0) + ", want " + std::to_string(want));
    }
    // Zero-gradient guarantee: a provably-inactive parameter's adjoint is
    // exactly 0.0 on the pruned sweep, whatever the runtime values did.
    for (const int slot : inactive) {
      if (pruned.parameters[static_cast<std::size_t>(slot)] != 0.0) {
        return fail("activity-pruned parameter slot " +
                    std::to_string(slot) + " has nonzero adjoint");
      }
    }
    // Finite-difference band check per parameter slot.
    if (!std::isfinite(f0) || std::abs(f0) > 1e100) continue;
    std::vector<double> probe = c.parameters;
    for (std::size_t i = 0; i < num_params; ++i) {
      const double p = c.parameters[i];
      const double h = 1e-6 * std::max(std::abs(p), 1.0);
      const auto eval_at = [&](double value) {
        probe[i] = value;
        const double f = expr::EvalExpr(*c.tree, MakeEvalContext(vars, probe));
        probe[i] = p;
        return f;
      };
      const double fp = eval_at(p + h);
      const double fm = eval_at(p - h);
      const double fp2 = eval_at(p + 0.5 * h);
      const double fm2 = eval_at(p - 0.5 * h);
      if (!std::isfinite(fp) || !std::isfinite(fm) || !std::isfinite(fp2) ||
          !std::isfinite(fm2) || std::abs(fp) > 1e100 ||
          std::abs(fm) > 1e100) {
        continue;  // probe left the representable regime; FD is meaningless
      }
      // FD rounding noise: of f itself, and to first order of every
      // intermediate value (absorption, cancellation, quantization inside
      // the expression leave |f| small but still move the FD quotients).
      const double noise = (std::abs(f0) + std::abs(fp) + std::abs(fm) +
                            full.rounding) *
                           1e-16 / h;
      const double central = (fp - fm) / (2.0 * h);
      const double central_half = (fp2 - fm2) / h;
      const double right = (fp - f0) / h;
      const double left = (f0 - fm) / h;
      const auto tol = [&](double est) {
        return 5e-3 * std::max(std::abs(full.parameters[i]), std::abs(est)) +
               1e-6 + 1e3 * noise;
      };
      // Self-consistency: when halving h moves the central estimate by
      // more than the acceptance band, the function is kinked (a clamp or
      // protection-band boundary sits inside the stencil) and a secant
      // proves nothing either way.
      if (std::abs(central - central_half) > tol(central)) continue;
      // Both sweeps face the same FD band. Strict pruned==unpruned equality
      // would be wrong: pruning drops mathematically-zero flows that the
      // unpruned sweep computes with rounding residue (e.g. the w/p and
      // w*p/(p*p) halves of d(p/p) round differently), so the pruned
      // adjoint can be the *more* exact of the two.
      for (const double* candidate :
           {&full.parameters[i], &pruned.parameters[i]}) {
        const char* which = candidate == &full.parameters[i] ? "" : "pruned ";
        if (!std::isfinite(*candidate)) {
          return fail(std::string("non-finite ") + which + "adjoint for slot " +
                      std::to_string(i) +
                      " where finite differences are finite and consistent");
        }
        const double a = *candidate;
        const bool accepted =
            std::abs(a - central) <= tol(central) ||
            std::abs(a - central_half) <= tol(central_half) ||
            std::abs(a - right) <= tol(right) ||
            std::abs(a - left) <= tol(left);
        if (!accepted) {
          std::ostringstream out;
          out.precision(17);
          out << which << "adjoint " << a << " for slot " << i
              << " disagrees with finite differences (central " << central
              << ", half-step " << central_half << ", right " << right
              << ", left " << left << ", h " << h << ") on "
              << expr::ToString(*c.tree) << ", vars [";
          for (std::size_t v = 0; v < vars.size(); ++v) {
            out << (v ? ", " : "") << vars[v];
          }
          out << "], seed " << c.seed;
          return OracleResult::Fail(out.str());
        }
      }
    }
  }
  return OracleResult::Pass();
}

namespace {

struct NamedOracle {
  const char* name;
  ExprOracle oracle;
};

constexpr NamedOracle kExprOracles[] = {
    {"vm", CheckVmAgrees},         {"simplify", CheckSimplifiedVmAgrees},
    {"system_vm", CheckSystemVmAgrees},
    {"roundtrip", CheckRoundTrip},
    {"ckpt_roundtrip", CheckCkptRoundTrip},
    {"interval", CheckIntervalSound}, {"gate", CheckGateSound},
    {"activity", CheckActivitySound},
    {"batch_jit", CheckBatchJitAgrees},
    {"gradcheck", CheckGradcheck},
};

}  // namespace

std::vector<std::string> ExprOracleNames() {
  std::vector<std::string> names;
  for (const NamedOracle& entry : kExprOracles) {
    names.emplace_back(entry.name);
  }
  return names;
}

ExprOracle FindExprOracle(const std::string& name) {
  for (const NamedOracle& entry : kExprOracles) {
    if (name == entry.name) return entry.oracle;
  }
  return nullptr;
}

namespace {

/// Compares ExpandToExpressions with the reference expansion (clone,
/// adjoin, lower) equation by equation; empty when they agree.
std::string ReferenceMismatch(const tag::Grammar& grammar,
                              const tag::DerivationNode& derivation) {
  const auto direct = tag::ExpandToExpressions(grammar, derivation);
  const auto reference =
      tag::LowerToExpressions(*tag::Expand(grammar, derivation));
  if (direct.size() != reference.size()) {
    return std::to_string(direct.size()) + " equations, reference has " +
           std::to_string(reference.size());
  }
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const std::string a = expr::ToSExpression(*direct[i]);
    const std::string b = expr::ToSExpression(*reference[i]);
    if (a != b ||
        direct[i]->StructuralHash() != reference[i]->StructuralHash()) {
      return "equation " + std::to_string(i) + " lowers to " + a +
             ", reference " + b;
    }
  }
  return "";
}

/// The fitness the derivation oracle hands gp::FitnessEvaluator, which
/// needs one to exist: the oracle only reads phenotypes and gate verdicts,
/// so nothing is ever scored against it.
class UnscoredFitness : public gp::SequentialFitness {
 public:
  std::size_t num_cases() const override { return 1; }
  std::size_t num_parameters() const override { return 0; }
  std::unique_ptr<gp::SequentialEvaluation> Begin(
      const std::vector<expr::ExprPtr>&, const std::vector<double>&,
      bool) const override {
    GMR_CHECK_MSG(false, "the derivation oracle scores no candidate");
    return nullptr;
  }
};

/// A gate over domains drawn from `rng`: each of the first 32 variable and
/// 48 parameter slots is unbounded, a half-line from a small bound, or a
/// finite box, and the saturation rate is low, moderate or +inf, so both
/// verdicts occur.
analysis::StaticGateConfig DrawGate(Rng& rng) {
  const auto draw = [&rng] {
    switch (rng.UniformInt(std::uint64_t{4})) {
      case 0:
        return analysis::Interval::All();
      case 1:
        return analysis::Interval{rng.Uniform(-1.0, 1.0),
                                  std::numeric_limits<double>::infinity(),
                                  false};
      default: {
        const double lo = rng.Uniform(-2.0, 5.0);
        return analysis::Interval::Of(lo, lo + rng.Uniform(0.0, 20.0));
      }
    }
  };
  analysis::StaticGateConfig gate;
  gate.enabled = true;
  gate.domains.variables.resize(32);
  for (analysis::Interval& slot : gate.domains.variables) slot = draw();
  gate.domains.parameters.resize(48);
  for (analysis::Interval& slot : gate.domains.parameters) slot = draw();
  constexpr double kRates[] = {1.0, 1e3,
                               std::numeric_limits<double>::infinity()};
  gate.saturation_rate = kRates[rng.UniformInt(std::uint64_t{3})];
  return gate;
}

/// Compares the table-backed phenotype and gate verdicts of `derivation`
/// under an evaluator built with `config` with the plain walks: the
/// phenotype must print and hash like the reference expansion (simplified
/// when the evaluator simplifies), and each verdict must equal
/// AnalyzeCandidate over it without tables — under the configured rate,
/// and under each equation's own interval lower bound as the rate, where
/// the verdict depends on (and its reason prints) that interval. Empty
/// when they agree.
std::string EvaluatorMismatch(const tag::Grammar& grammar,
                              gp::SpeedupConfig config,
                              const tag::DerivationNode& derivation) {
  const UnscoredFitness unscored;
  gp::Individual individual;
  individual.genotype = derivation.Clone();
  std::vector<expr::ExprPtr> reference =
      tag::LowerToExpressions(*tag::Expand(grammar, derivation));
  if (config.simplify_before_eval) {
    for (expr::ExprPtr& equation : reference) {
      equation = expr::Simplify(equation);
    }
  }
  const std::string form =
      config.simplify_before_eval ? "simplified" : "raw";
  std::vector<double> rates = {config.static_gate.saturation_rate};
  for (const expr::ExprPtr& equation : reference) {
    const double lo =
        analysis::EvaluateInterval(*equation, config.static_gate.domains).lo;
    if (std::isfinite(lo)) rates.push_back(lo);
  }
  for (const double rate : rates) {
    config.static_gate.saturation_rate = rate;
    const gp::FitnessEvaluator evaluator(&grammar, &unscored, config);
    const std::vector<expr::ExprPtr> phenotype =
        evaluator.Phenotype(individual);
    if (phenotype.size() != reference.size()) {
      return form + " phenotype has " + std::to_string(phenotype.size()) +
             " equations, reference " + std::to_string(reference.size());
    }
    for (std::size_t i = 0; i < phenotype.size(); ++i) {
      const std::string a = expr::ToSExpression(*phenotype[i]);
      const std::string b = expr::ToSExpression(*reference[i]);
      if (a != b ||
          phenotype[i]->StructuralHash() != reference[i]->StructuralHash()) {
        return form + " phenotype equation " + std::to_string(i) + " is " +
               a + ", reference " + b;
      }
    }
    const analysis::StaticVerdict tabled = evaluator.AnalyzeGate(phenotype);
    const analysis::StaticVerdict plain =
        analysis::AnalyzeCandidate(reference, config.static_gate);
    if (tabled.rule != plain.rule || tabled.equation != plain.equation ||
        tabled.reason != plain.reason) {
      return form + " gate verdict '" + tabled.reason + "' (rule " +
             analysis::GateRuleName(tabled.rule) + "), without tables '" +
             plain.reason + "' (rule " + analysis::GateRuleName(plain.rule) +
             ")";
    }
  }
  return "";
}

}  // namespace

OracleResult CheckDerivationDeterministic(const tag::Grammar& grammar,
                                          int alpha_index, std::size_t count,
                                          std::size_t target_size,
                                          std::uint64_t seed,
                                          ThreadPool* pool) {
  const auto render = [&](const std::vector<tag::DerivationPtr>& population) {
    std::string out;
    for (const auto& derivation : population) {
      for (const auto& e : tag::ExpandToExpressions(grammar, *derivation)) {
        out += expr::ToSExpression(*e);
        out += '\n';
      }
      out += '\n';
    }
    return out;
  };
  const auto pooled =
      GenerateDerivations(grammar, alpha_index, count, target_size, seed, pool);
  const auto inline_run = GenerateDerivations(grammar, alpha_index, count,
                                              target_size, seed, nullptr);
  // The evaluator's tables, simplifying and not, under a drawn gate.
  Rng gate_rng(CaseSeed(seed, 0x9a7eULL));
  gp::SpeedupConfig simplifying;
  simplifying.static_gate = DrawGate(gate_rng);
  gp::SpeedupConfig raw = simplifying;
  raw.simplify_before_eval = false;
  for (const auto& derivation : pooled) {
    std::string error;
    if (!tag::Validate(grammar, *derivation, &error)) {
      return OracleResult::Fail("generated derivation fails Validate: " +
                                error + " (seed " + std::to_string(seed) +
                                ")");
    }
    std::string mismatch = ReferenceMismatch(grammar, *derivation);
    if (!mismatch.empty()) {
      return OracleResult::Fail("phenotype differs from the reference "
                                "expansion: " + mismatch + " (seed " +
                                std::to_string(seed) + ")");
    }
    for (const gp::SpeedupConfig* config : {&simplifying, &raw}) {
      mismatch = EvaluatorMismatch(grammar, *config, *derivation);
      if (!mismatch.empty()) {
        return OracleResult::Fail("the evaluator's shared tables disagree "
                                  "with the plain walk: " + mismatch +
                                  " (seed " + std::to_string(seed) + ")");
      }
    }
  }
  const std::string a = render(pooled);
  if (a != render(inline_run)) {
    return OracleResult::Fail(
        "derivation population differs between pooled and inline generation "
        "(seed " +
        std::to_string(seed) + ")");
  }
  // Expansion must be a pure function of the derivation.
  if (a != render(pooled)) {
    return OracleResult::Fail("re-expanding the same derivations changed the "
                              "phenotype (seed " +
                              std::to_string(seed) + ")");
  }
  return OracleResult::Pass();
}

OracleResult CheckDerivationBytes(const tag::Grammar& grammar,
                                  int alpha_index, std::size_t count,
                                  std::size_t target_size, std::uint64_t seed,
                                  ThreadPool* pool) {
  // Mostly bytes of the codec's own alphabet, so a mutant often still
  // parses and reaches Validate and the lowering; now and then any byte.
  static constexpr std::string_view kCodecBytes = "()0123456789abcdef -";
  constexpr int kMutantsPerDerivation = 8;
  const auto population =
      GenerateDerivations(grammar, alpha_index, count, target_size, seed, pool);
  Rng rng(CaseSeed(seed, 0xb7e5ULL));
  for (std::size_t i = 0; i < population.size(); ++i) {
    const std::string original = ckpt::SerializeDerivation(*population[i]);
    for (int m = 0; m < kMutantsPerDerivation; ++m) {
      std::string line = original;
      const int edits = 1 + rng.UniformInt(0, 3);
      for (int k = 0; k < edits; ++k) {
        const char byte =
            rng.Bernoulli(0.75)
                ? kCodecBytes[static_cast<std::size_t>(
                      rng.UniformInt(std::uint64_t{kCodecBytes.size()}))]
                : static_cast<char>(rng.UniformInt(std::uint64_t{256}));
        const auto at = static_cast<std::size_t>(
            rng.UniformInt(std::uint64_t{line.size()}));
        switch (rng.UniformInt(std::uint64_t{3})) {
          case 0:
            line[at] = byte;
            break;
          case 1:
            line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte);
            break;
          default:
            if (line.size() > 1) {
              line.erase(line.begin() + static_cast<std::ptrdiff_t>(at));
            }
            break;
        }
      }
      const std::string where = " (derivation " + std::to_string(i) +
                                ", mutant " + std::to_string(m) + ", seed " +
                                std::to_string(seed) + ")";
      std::string error;
      const tag::DerivationPtr parsed = ckpt::ParseDerivationLine(line, &error);
      if (parsed == nullptr) {
        if (error.empty()) {
          return OracleResult::Fail("rejected without an error" + where);
        }
        continue;
      }
      if (!tag::Validate(grammar, *parsed, &error)) continue;
      const tag::TagNode& alpha = grammar.alpha(parsed->tree_index).root();
      const std::size_t equations =
          alpha.kind == tag::TagNode::Kind::kSystem ? alpha.children.size()
                                                    : 1;
      const std::size_t lowered =
          tag::ExpandToExpressions(grammar, *parsed).size();
      if (lowered != equations) {
        return OracleResult::Fail(std::to_string(lowered) +
                                  " equations lowered, the alpha has " +
                                  std::to_string(equations) + where);
      }
      const std::string mismatch = ReferenceMismatch(grammar, *parsed);
      if (!mismatch.empty()) {
        return OracleResult::Fail("phenotype differs from the reference "
                                  "expansion: " + mismatch + where);
      }
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckGenerationRoundTrip(const tag::Grammar& grammar,
                                      int alpha_index, std::size_t count,
                                      std::size_t target_size,
                                      std::uint64_t seed, ThreadPool* pool) {
  const auto render = [&](const tag::DerivationNode& derivation) {
    std::string out;
    for (const auto& e : tag::ExpandToExpressions(grammar, derivation)) {
      out += expr::ToSExpression(*e);
      out += '\n';
    }
    return out;
  };
  const auto population =
      GenerateDerivations(grammar, alpha_index, count, target_size, seed, pool);
  Rng rng(CaseSeed(seed, 0xc4b7ULL));
  for (std::size_t i = 0; i < population.size(); ++i) {
    const tag::DerivationNode& original = *population[i];
    const std::string once = ckpt::SerializeDerivation(original);
    std::string error;
    const tag::DerivationPtr parsed = ckpt::ParseDerivationLine(once, &error);
    if (parsed == nullptr) {
      return OracleResult::Fail("derivation " + std::to_string(i) +
                                " does not reparse: " + error + " (seed " +
                                std::to_string(seed) + ")");
    }
    if (!tag::Validate(grammar, *parsed, &error)) {
      return OracleResult::Fail("reparsed derivation " + std::to_string(i) +
                                " fails Validate: " + error + " (seed " +
                                std::to_string(seed) + ")");
    }
    if (ckpt::SerializeDerivation(*parsed) != once) {
      return OracleResult::Fail("derivation " + std::to_string(i) +
                                " is not a codec fixpoint (seed " +
                                std::to_string(seed) + ")");
    }
    if (render(*parsed) != render(original)) {
      return OracleResult::Fail("reparsed derivation " + std::to_string(i) +
                                " expands to a different phenotype (seed " +
                                std::to_string(seed) + ")");
    }
    // The individual's constant vector must survive with its exact bits.
    std::vector<double> parameters(4);
    for (double& p : parameters) p = rng.Uniform(-1e3, 1e3);
    std::vector<double> back;
    if (!ckpt::ParseDoubles(ckpt::SerializeDoubles(parameters), &back) ||
        back != parameters) {
      return OracleResult::Fail("parameter vector of individual " +
                                std::to_string(i) +
                                " does not round-trip (seed " +
                                std::to_string(seed) + ")");
    }
  }
  return OracleResult::Pass();
}

}  // namespace gmr::check
