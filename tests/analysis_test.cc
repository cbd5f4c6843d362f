// Static-analysis tests: interval transfer functions (including the
// protected-kernel edge cases), the expression/dead-input linter, TAG
// grammar diagnostics, the grammar spec loader, and the evaluator's static
// reject gate (including the end-to-end guarantee that a rejected candidate
// never reaches the integrator). Labeled `analysis` in ctest.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/dataflow.h"
#include "analysis/grammar_io.h"
#include "analysis/grammar_lint.h"
#include "analysis/interval.h"
#include "analysis/lint.h"
#include "analysis/sign.h"
#include "analysis/static_gate.h"
#include "analysis/units.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/river_grammar.h"
#include "gp/evaluator.h"
#include "gp/individual.h"
#include "gp/parameter_prior.h"
#include "river/biology.h"
#include "river/dataset.h"
#include "river/domains.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/variables.h"
#include "tag/generate.h"

namespace gmr {
namespace {

namespace a = gmr::analysis;
namespace e = gmr::expr;
namespace t = gmr::tag;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- intervals ----

TEST(IntervalTest, PointAndPredicates) {
  const a::Interval p = a::Interval::Point(3.5);
  EXPECT_TRUE(p.IsPoint());
  EXPECT_TRUE(p.IsFinite());
  EXPECT_FALSE(p.CanBeInf());
  EXPECT_TRUE(p.Contains(3.5));
  EXPECT_FALSE(p.Contains(3.6));

  const a::Interval nan_point =
      a::Interval::Point(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(nan_point.maybe_nan);
  EXPECT_EQ(nan_point.lo, -kInf);
  EXPECT_EQ(nan_point.hi, kInf);

  EXPECT_TRUE(a::Interval::All().CanBeInf());
  EXPECT_FALSE(a::Interval::All().IsFinite());
  EXPECT_FALSE((a::Interval{kInf, kInf, false}).IsPoint());
}

TEST(IntervalTest, AddTracksInfMinusInf) {
  const a::Interval r =
      a::IntervalAdd(a::Interval::Of(0.0, kInf), a::Interval::Of(-kInf, 0.0));
  EXPECT_TRUE(r.maybe_nan);
  EXPECT_EQ(r.lo, -kInf);
  EXPECT_EQ(r.hi, kInf);

  const a::Interval clean =
      a::IntervalAdd(a::Interval::Of(1.0, 2.0), a::Interval::Of(10.0, 20.0));
  EXPECT_FALSE(clean.maybe_nan);
  EXPECT_DOUBLE_EQ(clean.lo, 11.0);
  EXPECT_DOUBLE_EQ(clean.hi, 22.0);
}

TEST(IntervalTest, SubIsAddOfNeg) {
  const a::Interval r =
      a::IntervalSub(a::Interval::Of(1.0, 2.0), a::Interval::Of(10.0, 20.0));
  EXPECT_DOUBLE_EQ(r.lo, -19.0);
  EXPECT_DOUBLE_EQ(r.hi, -8.0);
  // inf - inf (same sign) is NaN-capable.
  EXPECT_TRUE(a::IntervalSub(a::Interval::Of(0.0, kInf),
                             a::Interval::Of(0.0, kInf))
                  .maybe_nan);
}

TEST(IntervalTest, MulResolvesZeroTimesInfBounds) {
  // [0, 2] * [3, inf]: the bound candidate 0*inf resolves to 0, and NaN is
  // flagged because 0 * inf is genuinely reachable at runtime.
  const a::Interval r =
      a::IntervalMul(a::Interval::Of(0.0, 2.0), a::Interval::Of(3.0, kInf));
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_EQ(r.hi, kInf);
  EXPECT_TRUE(r.maybe_nan);

  const a::Interval clean =
      a::IntervalMul(a::Interval::Of(-2.0, 3.0), a::Interval::Of(-4.0, 5.0));
  EXPECT_DOUBLE_EQ(clean.lo, -12.0);  // 3 * -4
  EXPECT_DOUBLE_EQ(clean.hi, 15.0);   // 3 * 5
  EXPECT_FALSE(clean.maybe_nan);
}

TEST(IntervalTest, DivEntirelyInsideProtectionBandIsOne) {
  // Every denominator value is inside |d| < 1e-9, so the protected kernel
  // returns exactly 1 everywhere (the "empty denominator domain" edge).
  const a::Interval r = a::IntervalDiv(a::Interval::Of(5.0, 7.0),
                                       a::Interval::Of(1e-12, 1e-10));
  EXPECT_DOUBLE_EQ(r.lo, 1.0);
  EXPECT_DOUBLE_EQ(r.hi, 1.0);
  EXPECT_FALSE(r.maybe_nan);
}

TEST(IntervalTest, DivUnionsProtectedOneWithQuotientRange) {
  // Denominator [0, 2] reaches both the band (-> 1) and [eps, 2].
  const a::Interval r =
      a::IntervalDiv(a::Interval::Of(1.0, 1.0), a::Interval::Of(0.0, 2.0));
  EXPECT_DOUBLE_EQ(r.lo, 0.5);
  EXPECT_DOUBLE_EQ(r.hi, 1.0 / e::kDivEpsilon);
  EXPECT_FALSE(r.maybe_nan);
}

TEST(IntervalTest, DivByInfiniteDenominatorReachesZero) {
  const a::Interval r =
      a::IntervalDiv(a::Interval::Of(1.0, 2.0), a::Interval::Of(1.0, kInf));
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_DOUBLE_EQ(r.hi, 2.0);
  EXPECT_FALSE(r.maybe_nan);
  // inf / inf is NaN-capable.
  EXPECT_TRUE(a::IntervalDiv(a::Interval::Of(1.0, kInf),
                             a::Interval::Of(1.0, kInf))
                  .maybe_nan);
}

TEST(IntervalTest, DivSignSplitExcludesBand) {
  const a::Interval r =
      a::IntervalDiv(a::Interval::Of(1.0, 1.0), a::Interval::Of(-2.0, 2.0));
  // Negative part gives [-1/eps, -0.5], positive part [0.5, 1/eps], band
  // contributes {1}.
  EXPECT_DOUBLE_EQ(r.lo, -1.0 / e::kDivEpsilon);
  EXPECT_DOUBLE_EQ(r.hi, 1.0 / e::kDivEpsilon);
}

TEST(IntervalTest, LogMatchesProtectedKernel) {
  // Entirely inside the |x| < 1e-12 band: constant 0.
  const a::Interval banded =
      a::IntervalLog(a::Interval::Of(-1e-13, 1e-13));
  EXPECT_DOUBLE_EQ(banded.lo, 0.0);
  EXPECT_DOUBLE_EQ(banded.hi, 0.0);

  // Positive range away from the band: plain log.
  const a::Interval pos = a::IntervalLog(a::Interval::Of(1.0, 10.0));
  EXPECT_DOUBLE_EQ(pos.lo, 0.0);
  EXPECT_DOUBLE_EQ(pos.hi, std::log(10.0));

  // Sign-crossing range: |x| reaches 0, so the result is bounded below by
  // log(kLogEpsilon) and includes the protected 0.
  const a::Interval cross = a::IntervalLog(a::Interval::Of(-5.0, 20.0));
  EXPECT_DOUBLE_EQ(cross.lo, std::log(e::kLogEpsilon));
  EXPECT_DOUBLE_EQ(cross.hi, std::log(20.0));

  // Negative range: log(|x|).
  const a::Interval neg = a::IntervalLog(a::Interval::Of(-8.0, -2.0));
  EXPECT_DOUBLE_EQ(neg.lo, std::log(2.0));
  EXPECT_DOUBLE_EQ(neg.hi, std::log(8.0));

  // log(inf) stays inf.
  EXPECT_EQ(a::IntervalLog(a::Interval::Of(1.0, kInf)).hi, kInf);
}

TEST(IntervalTest, ExpClampsAtEighty) {
  const a::Interval r = a::IntervalExp(a::Interval::Of(90.0, 200.0));
  EXPECT_DOUBLE_EQ(r.lo, std::exp(e::kExpArgClamp));
  EXPECT_DOUBLE_EQ(r.hi, std::exp(e::kExpArgClamp));
  EXPECT_TRUE(a::IntervalExp(a::Interval::Of(-kInf, kInf)).IsFinite());
}

TEST(IntervalTest, MinMaxWidenToHullUnderNan) {
  // The scalar kernel `a < b ? a : b` returns the RIGHT operand when a is
  // NaN, so min([0,1]?NaN, [5,9]) can produce 7 — only the hull is sound.
  a::Interval left = a::Interval::Of(0.0, 1.0);
  left.maybe_nan = true;
  const a::Interval right = a::Interval::Of(5.0, 9.0);
  const a::Interval r = a::IntervalMin(left, right);
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_DOUBLE_EQ(r.hi, 9.0);
  EXPECT_TRUE(r.maybe_nan);

  const a::Interval clean_min =
      a::IntervalMin(a::Interval::Of(0.0, 4.0), a::Interval::Of(2.0, 9.0));
  EXPECT_DOUBLE_EQ(clean_min.lo, 0.0);
  EXPECT_DOUBLE_EQ(clean_min.hi, 4.0);
  const a::Interval clean_max =
      a::IntervalMax(a::Interval::Of(0.0, 4.0), a::Interval::Of(2.0, 9.0));
  EXPECT_DOUBLE_EQ(clean_max.lo, 2.0);
  EXPECT_DOUBLE_EQ(clean_max.hi, 9.0);
}

TEST(IntervalTest, SquareIsNonNegative) {
  const a::Interval r = a::IntervalSquare(a::Interval::Of(-3.0, 2.0));
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_DOUBLE_EQ(r.hi, 9.0);
  const a::Interval neg = a::IntervalSquare(a::Interval::Of(-5.0, -2.0));
  EXPECT_DOUBLE_EQ(neg.lo, 4.0);
  EXPECT_DOUBLE_EQ(neg.hi, 25.0);
}

TEST(IntervalTest, EvaluateUsesCorrelationAwareRules) {
  a::DomainEnv env;
  env.variables = {a::Interval::Of(-3.0, 2.0)};
  const e::ExprPtr x = e::Variable(0, "x");

  // x * x is a square, not a general product (which would give [-6, 9]).
  const a::Interval sq = a::EvaluateInterval(*e::Mul(x, x), env);
  EXPECT_DOUBLE_EQ(sq.lo, 0.0);
  EXPECT_DOUBLE_EQ(sq.hi, 9.0);

  // x - x is exactly 0 and x / x exactly 1 for finite x.
  const a::Interval sub = a::EvaluateInterval(*e::Sub(x, x), env);
  EXPECT_TRUE(sub.IsPoint());
  EXPECT_DOUBLE_EQ(sub.lo, 0.0);
  const a::Interval div = a::EvaluateInterval(*e::Div(x, x), env);
  EXPECT_TRUE(div.IsPoint());
  EXPECT_DOUBLE_EQ(div.lo, 1.0);
  EXPECT_DOUBLE_EQ(
      a::EvaluateInterval(*e::Min(x, x), env).lo, -3.0);

  // With an unbounded operand the identities pick up the NaN bit
  // (inf - inf, inf / inf).
  env.variables[0] = a::Interval::Of(0.0, kInf);
  EXPECT_TRUE(a::EvaluateInterval(*e::Sub(x, x), env).maybe_nan);
  EXPECT_TRUE(a::EvaluateInterval(*e::Div(x, x), env).maybe_nan);
}

TEST(IntervalTest, EvaluateUnknownSlotsAreUnconstrained) {
  const a::DomainEnv env;  // no slot information at all
  const a::Interval r =
      a::EvaluateInterval(*e::Variable(4, "v"), env);
  EXPECT_EQ(r.lo, -kInf);
  EXPECT_EQ(r.hi, kInf);
}

TEST(IntervalTest, ParametersInDomain) {
  a::DomainEnv env;
  env.parameters = {a::Interval::Of(0.0, 1.0), a::Interval::Of(2.0, 3.0)};
  EXPECT_TRUE(a::ParametersInDomain({0.5, 2.5}, env));
  EXPECT_FALSE(a::ParametersInDomain({1.5, 2.5}, env));
  EXPECT_FALSE(a::ParametersInDomain(
      {std::numeric_limits<double>::quiet_NaN(), 2.5}, env));
  // Slots beyond the env are unconstrained.
  EXPECT_TRUE(a::ParametersInDomain({0.5, 2.5, 1e9}, env));
}

// ---------------------------------------------------------------- linter ----

a::DomainEnv SmallEnv() {
  a::DomainEnv env;
  env.variables = {a::Interval::Of(0.0, 10.0), a::Interval::Of(-5.0, 5.0)};
  env.parameters = {a::Interval::Of(0.0, 1.0), a::Interval::Of(0.5, 2.0)};
  return env;
}

a::LintOptions SmallOptions() {
  a::LintOptions options;
  options.num_states = 2;
  options.variable_names = {"v0", "v1"};
  options.parameter_names = {"p0", "p1"};
  return options;
}

const a::Diagnostic* FindCode(const a::LintResult& result,
                              const std::string& code) {
  for (const a::Diagnostic& d : result.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::size_t CountCode(const a::LintResult& result, const std::string& code) {
  std::size_t n = 0;
  for (const a::Diagnostic& d : result.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

TEST(LintTest, FormatAddressAndDiagnostic) {
  a::Diagnostic d;
  d.severity = a::Severity::kError;
  d.code = "div-by-zero";
  d.equation = 0;
  d.address = {1, 0, 2};
  d.message = "boom";
  EXPECT_EQ(a::FormatAddress(d), "eq0:1.0.2");
  EXPECT_EQ(a::FormatDiagnostic(d), "eq0:1.0.2: error [div-by-zero] boom");
  d.address.clear();
  EXPECT_EQ(a::FormatAddress(d), "eq0");
  d.equation = -1;
  EXPECT_EQ(a::FormatAddress(d), "-");
}

TEST(LintTest, ProvableDivisionByZero) {
  // v1 - v1 is identically zero, so the denominator lives in the band.
  const e::ExprPtr v1 = e::Variable(1, "v1");
  const std::vector<e::ExprPtr> eqs{
      e::Div(e::Variable(0, "v0"), e::Sub(v1, v1)),
      e::Variable(1, "v1")};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), SmallOptions());
  const a::Diagnostic* d = FindCode(result, "div-by-zero");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, a::Severity::kError);
  EXPECT_EQ(d->equation, 0);
  EXPECT_TRUE(d->address.empty());  // addressed to the division node
  EXPECT_TRUE(result.HasErrors());
  // The always-protected division makes both operands dead: v0 is
  // referenced but not live.
  EXPECT_EQ(result.referenced_variables, (std::vector<int>{0, 1}));
  EXPECT_EQ(result.live_variables, (std::vector<int>{1}));
}

TEST(LintTest, DivMayVanishIsAWarning) {
  // v1 spans [-5, 5]: the denominator can enter the band but need not.
  const std::vector<e::ExprPtr> eqs{
      e::Div(e::Variable(0, "v0"), e::Variable(1, "v1"))};
  a::LintOptions options = SmallOptions();
  options.num_states = 0;
  const a::LintResult result = a::LintEquations(eqs, SmallEnv(), options);
  const a::Diagnostic* d = FindCode(result, "div-may-vanish");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, a::Severity::kWarning);
  EXPECT_EQ(FindCode(result, "div-by-zero"), nullptr);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_TRUE(result.HasWarnings());
}

TEST(LintTest, LogDiagnostics) {
  const e::ExprPtr v1 = e::Variable(1, "v1");
  {
    // Argument can be non-positive: warning.
    const std::vector<e::ExprPtr> eqs{e::Log(v1)};
    a::LintOptions options;
    const a::LintResult result = a::LintEquations(eqs, SmallEnv(), options);
    const a::Diagnostic* d = FindCode(result, "log-nonpositive");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, a::Severity::kWarning);
  }
  {
    // Argument identically zero: error.
    const std::vector<e::ExprPtr> eqs{e::Log(e::Sub(v1, v1))};
    a::LintOptions options;
    const a::LintResult result = a::LintEquations(eqs, SmallEnv(), options);
    const a::Diagnostic* d = FindCode(result, "log-of-zero");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, a::Severity::kError);
  }
  {
    // Strictly positive argument: clean.
    const std::vector<e::ExprPtr> eqs{
        e::Log(e::Add(e::Variable(0, "v0"), e::Constant(1.0)))};
    a::LintOptions options;
    const a::LintResult result = a::LintEquations(eqs, SmallEnv(), options);
    EXPECT_EQ(FindCode(result, "log-nonpositive"), nullptr);
    EXPECT_EQ(FindCode(result, "log-of-zero"), nullptr);
  }
}

TEST(LintTest, ExpDiagnostics) {
  {
    // Always past the clamp: error.
    const std::vector<e::ExprPtr> eqs{
        e::Exp(e::Add(e::Constant(100.0), e::Variable(0, "v0")))};
    const a::LintResult result =
        a::LintEquations(eqs, SmallEnv(), a::LintOptions{});
    const a::Diagnostic* d = FindCode(result, "exp-overflow");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, a::Severity::kError);
  }
  {
    // Can exceed the clamp on part of the range: warning.
    const std::vector<e::ExprPtr> eqs{
        e::Exp(e::Mul(e::Constant(10.0), e::Variable(0, "v0")))};
    const a::LintResult result =
        a::LintEquations(eqs, SmallEnv(), a::LintOptions{});
    const a::Diagnostic* d = FindCode(result, "exp-may-overflow");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, a::Severity::kWarning);
    EXPECT_EQ(FindCode(result, "exp-overflow"), nullptr);
  }
}

TEST(LintTest, ConstantFoldableSubtreeNotedOnceAtMaximalNode) {
  // (v0 + 2) / (v0 + 2) is provably 1 — the guarded syntactic simplifier
  // (soundly) declines to fold it, interval analysis proves it.
  const e::ExprPtr sum = e::Add(e::Variable(0, "v0"), e::Constant(2.0));
  const std::vector<e::ExprPtr> eqs{e::Mul(e::Div(sum, sum),
                                           e::Variable(1, "v1"))};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), a::LintOptions{});
  EXPECT_EQ(CountCode(result, "constant-foldable"), 1u);
  const a::Diagnostic* d = FindCode(result, "constant-foldable");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, a::Severity::kNote);
  EXPECT_EQ(d->address, (std::vector<int>{0}));  // the Div node
}

TEST(LintTest, DominatedBranchesAndLiveness) {
  // min(1, v0 + 5): v0 + 5 spans [5, 15], so the constant always wins.
  const std::vector<e::ExprPtr> eqs{
      e::Min(e::Constant(1.0),
             e::Add(e::Variable(0, "v0"), e::Constant(5.0)))};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), a::LintOptions{});
  const a::Diagnostic* d = FindCode(result, "dominated-branch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->address, (std::vector<int>{1}));
  // v0 only occurs under the dominated branch: referenced but dead.
  EXPECT_EQ(result.referenced_variables, (std::vector<int>{0}));
  EXPECT_TRUE(result.live_variables.empty());

  // The note is suppressible.
  a::LintOptions quiet;
  quiet.note_dominated_branches = false;
  EXPECT_EQ(FindCode(a::LintEquations(eqs, SmallEnv(), quiet),
                     "dominated-branch"),
            nullptr);
}

TEST(LintTest, MulByProvableZeroKillsLiveness) {
  // 0 * p1 contributes nothing: p1 is referenced but dead, p0 is live.
  const std::vector<e::ExprPtr> eqs{
      e::Add(e::Mul(e::Constant(0.0), e::Parameter(1, "p1")),
             e::Parameter(0, "p0"))};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), SmallOptions());
  EXPECT_EQ(result.referenced_parameters, (std::vector<int>{0, 1}));
  EXPECT_EQ(result.live_parameters, (std::vector<int>{0}));
  const a::Diagnostic* dead = FindCode(result, "dead-parameter");
  ASSERT_NE(dead, nullptr);
  EXPECT_NE(dead->message.find("p1"), std::string::npos);
  EXPECT_NE(dead->message.find("cannot affect"), std::string::npos);
}

TEST(LintTest, UndeclaredAndDeadInputs) {
  // Equation uses v0 and p0 only; v1 is a state with no path, p1 declared
  // but never referenced.
  const std::vector<e::ExprPtr> eqs{
      e::Mul(e::Variable(0, "v0"), e::Parameter(0, "p0")),
      e::Variable(0, "v0")};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), SmallOptions());
  const a::Diagnostic* dead_state = FindCode(result, "dead-state-variable");
  ASSERT_NE(dead_state, nullptr);
  EXPECT_NE(dead_state->message.find("v1"), std::string::npos);
  const a::Diagnostic* dead_param = FindCode(result, "dead-parameter");
  ASSERT_NE(dead_param, nullptr);
  EXPECT_NE(dead_param->message.find("p1"), std::string::npos);
  EXPECT_NE(dead_param->message.find("never referenced"), std::string::npos);
}

TEST(LintTest, NonFiniteRootIsAnError) {
  const std::vector<e::ExprPtr> eqs{e::Constant(-kInf)};
  const a::LintResult result =
      a::LintEquations(eqs, SmallEnv(), a::LintOptions{});
  const a::Diagnostic* d = FindCode(result, "non-finite-output");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, a::Severity::kError);
  EXPECT_TRUE(d->address.empty());
}

// ------------------------------------------------- river model (no FPs) ----

TEST(LintTest, ExpertRiverModelIsClean) {
  a::LintOptions options;
  options.num_states = 2;
  options.variable_names = river::VariableNames();
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    options.parameter_names.push_back(river::ParameterName(slot));
  }
  const a::LintResult result = a::LintEquations(
      river::ManualProcess(), river::LintDomains(), options);
  for (const a::Diagnostic& d : result.diagnostics) {
    ADD_FAILURE() << "unexpected diagnostic: " << a::FormatDiagnostic(d);
  }
  // Every Table III parameter has a live data-flow path.
  EXPECT_EQ(result.live_parameters.size(),
            static_cast<std::size_t>(river::kNumParameters));
}

TEST(LintTest, TruncatedRiverModelHasDeadParameters) {
  // Dropping the zooplankton equation orphans the zoo-only parameters.
  a::LintOptions options;
  options.num_states = 2;
  options.variable_names = river::VariableNames();
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    options.parameter_names.push_back(river::ParameterName(slot));
  }
  const std::vector<e::ExprPtr> eqs{river::PhytoplanktonDerivative()};
  const a::LintResult result =
      a::LintEquations(eqs, river::LintDomains(), options);
  EXPECT_EQ(CountCode(result, "dead-parameter"), 4u);
  std::vector<std::string> dead;
  for (const a::Diagnostic& d : result.diagnostics) {
    if (d.code != "dead-parameter") continue;
    for (const char* name : {"C_UZ", "C_BRZ", "C_DZ", "C_BMT"}) {
      if (d.message.find(name) != std::string::npos) dead.push_back(name);
    }
  }
  EXPECT_EQ(dead.size(), 4u);
  // B_Zoo still appears (grazing term), so no dead-state warning.
  EXPECT_EQ(FindCode(result, "dead-state-variable"), nullptr);
}

// -------------------------------------------------------- grammar linting ----

TEST(GrammarLintTest, RiverGrammarIsWarningCleanWithExpectedDepths) {
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const a::GrammarLintResult result = a::LintGrammar(knowledge.grammar);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_FALSE(result.HasWarnings());
  EXPECT_TRUE(result.unreachable_betas.empty());
  EXPECT_TRUE(result.nonproductive_labels.empty());
  // Connector labels live in the seed alpha (depth 0); extender labels are
  // exposed by adjoining a connector beta (depth 1).
  ASSERT_TRUE(result.label_depth.count("ExtC1"));
  EXPECT_EQ(result.label_depth.at("ExtC1"), 0);
  ASSERT_TRUE(result.label_depth.count("ExtE1"));
  EXPECT_EQ(result.label_depth.at("ExtE1"), 1);
}

TEST(GrammarLintTest, UnreachableBetaIsFlagged) {
  std::istringstream spec(R"(# gmr-grammar v1
slot R 0.0 1.0
alpha seed Exp : B_Phy + R
beta grow Exp : FOOT * R
beta orphan ExtQ : FOOT + V_n
)");
  t::Grammar grammar;
  std::string error;
  ASSERT_TRUE(a::ParseGrammarSpec(spec, river::RiverSymbols(), &grammar,
                                  &error))
      << error;
  const a::GrammarLintResult result = a::LintGrammar(grammar);
  EXPECT_EQ(result.unreachable_betas, (std::vector<int>{1}));
  EXPECT_TRUE(result.HasWarnings());
  EXPECT_FALSE(result.HasErrors());
}

TEST(GrammarLintTest, NonFiniteSlotSpecIsNonProductive) {
  std::istringstream spec(R"(# gmr-grammar v1
slot R 0.0 inf
alpha seed Exp : B_Phy + R
beta grow Exp : FOOT * R
)");
  t::Grammar grammar;
  std::string error;
  ASSERT_TRUE(a::ParseGrammarSpec(spec, river::RiverSymbols(), &grammar,
                                  &error))
      << error;
  const a::GrammarLintResult result = a::LintGrammar(grammar);
  EXPECT_TRUE(result.HasErrors());
  ASSERT_EQ(result.nonproductive_labels.size(), 1u);
  EXPECT_EQ(result.nonproductive_labels[0], "R");
}

TEST(GrammarLintTest, GrammarWithoutAlphaTreesIsAnError) {
  const a::GrammarLintResult result = a::LintGrammar(t::Grammar{});
  EXPECT_TRUE(result.HasErrors());
}

TEST(GrammarIoTest, LoaderRejectsStructuralMistakesBeforeTheAbortingApi) {
  const auto parse = [](const std::string& text, std::string* error) {
    std::istringstream in(text);
    t::Grammar grammar;
    return a::ParseGrammarSpec(in, river::RiverSymbols(), &grammar, error);
  };
  std::string error;
  // Slot spec with lo > hi would abort inside Grammar::SetSlotSpec.
  EXPECT_FALSE(parse("# gmr-grammar v1\nslot R 1.0 0.0\n"
                     "alpha a Exp : B_Phy\n",
                     &error));
  EXPECT_NE(error.find("lo > hi"), std::string::npos);
  // A slot line takes exactly a label and two bounds.
  EXPECT_FALSE(parse("# gmr-grammar v1\nslot R 0.0 1.0 5.0\n"
                     "alpha a Exp : B_Phy\n",
                     &error));
  EXPECT_NE(error.find("bad slot line"), std::string::npos);
  // FOOT in an alpha tree.
  EXPECT_FALSE(parse("# gmr-grammar v1\nalpha a Exp : FOOT + B_Phy\n",
                     &error));
  EXPECT_NE(error.find("must not contain FOOT"), std::string::npos);
  // Beta trees need exactly one FOOT (zero and two both abort in
  // ElementaryTree).
  EXPECT_FALSE(parse("# gmr-grammar v1\nbeta b Exp : B_Phy + V_n\n",
                     &error));
  EXPECT_NE(error.find("exactly one FOOT"), std::string::npos);
  EXPECT_FALSE(parse("# gmr-grammar v1\nbeta b Exp : FOOT + FOOT\n",
                     &error));
  EXPECT_NE(error.find("exactly one FOOT"), std::string::npos);
  // Header and content requirements.
  EXPECT_FALSE(parse("alpha a Exp : B_Phy\n", &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_FALSE(parse("# gmr-grammar v1\n", &error));
  EXPECT_NE(error.find("no trees"), std::string::npos);
  EXPECT_FALSE(parse("# gmr-grammar v1\nfrob x\n", &error));
  EXPECT_NE(error.find("unknown keyword"), std::string::npos);
  // Unknown identifiers surface the parser diagnostic.
  EXPECT_FALSE(parse("# gmr-grammar v1\nalpha a Exp : B_Typo\n", &error));
  EXPECT_NE(error.find("bad expression"), std::string::npos);
}

// ------------------------------------------------------------ static gate ----

TEST(StaticGateTest, RejectsProvablyNonFiniteAndSaturatingCandidates) {
  a::StaticGateConfig config;
  config.enabled = true;
  config.domains.variables = {a::Interval::Of(0.01, kInf)};
  // Default rate (+inf): only provably non-finite right-hand sides.
  {
    const std::vector<e::ExprPtr> eqs{e::Constant(-kInf)};
    const a::StaticVerdict verdict = a::AnalyzeCandidate(eqs, config);
    EXPECT_TRUE(verdict.reject);
    EXPECT_EQ(verdict.equation, 0);
  }
  {
    // Divergence toward the floor (huge negative derivative) is NOT
    // rejectable: the clamp floor absorbs it without a watchdog.
    const std::vector<e::ExprPtr> eqs{
        e::Mul(e::Constant(-1e9), e::Variable(0, "x"))};
    EXPECT_FALSE(a::AnalyzeCandidate(eqs, config).reject);
  }
  // With a finite saturation rate, a provably huge positive derivative is
  // rejected; a merely possibly-huge one is not.
  config.saturation_rate = 2e4;
  {
    const std::vector<e::ExprPtr> eqs{
        e::Mul(e::Constant(1e9), e::Variable(0, "x"))};
    const a::StaticVerdict verdict = a::AnalyzeCandidate(eqs, config);
    EXPECT_TRUE(verdict.reject);
    EXPECT_NE(verdict.reason.find("saturates"), std::string::npos);
  }
  {
    // Range [-1e9 * x.hi, ...] includes small values: must pass.
    const std::vector<e::ExprPtr> eqs{
        e::Sub(e::Mul(e::Constant(1e9), e::Variable(0, "x")),
               e::Mul(e::Constant(2e9), e::Variable(0, "x")))};
    EXPECT_FALSE(a::AnalyzeCandidate(eqs, config).reject);
  }
  // The expert process passes the river gate.
  const a::StaticGateConfig river_gate =
      river::MakeStaticGate(river::SimulationConfig{}, nullptr);
  EXPECT_FALSE(
      a::AnalyzeCandidate(river::ManualProcess(), river_gate).reject);
}

// --------------------------------------------- evaluator gate integration ----

river::RiverDataset TinyDataset(std::size_t days) {
  river::RiverDataset dataset;
  dataset.num_days = days;
  dataset.drivers.assign(river::kNumVariables, {});
  for (int slot : river::ObservedVariableSlots()) {
    dataset.drivers[static_cast<std::size_t>(slot)] =
        std::vector<double>(days, 1.0);
  }
  dataset.observed_bphy = std::vector<double>(days, 5.0);
  dataset.train_end = days / 2;
  return dataset;
}

/// River grammar plus one extra alpha tree whose phenotype provably
/// saturates the clamp: dB_Phy/dt = 1e9 * B_Phy >= 1e7 everywhere.
struct GateFixture {
  GateFixture()
      : knowledge(core::BuildRiverPriorKnowledge()), dataset(TinyDataset(40)) {
    std::vector<t::TagNodePtr> equations;
    equations.push_back(t::FromExpr(
        e::Mul(e::Constant(1e9), e::Variable(river::kBPhy, "B_Phy")),
        t::kExpSymbol));
    equations.push_back(t::FromExpr(e::Constant(0.0), t::kExpSymbol));
    divergent_alpha = knowledge.grammar.AddAlphaTree(
        t::ElementaryTree("divergent", t::SystemNode(std::move(equations))));
  }

  gp::Individual MakeDivergent(unsigned seed) {
    Rng rng(seed);
    gp::Individual individual;
    individual.genotype =
        t::NewSeedDerivation(knowledge.grammar, divergent_alpha, rng);
    individual.parameters = gp::PriorMeans(knowledge.priors);
    return individual;
  }

  core::RiverPriorKnowledge knowledge;
  river::RiverDataset dataset;
  int divergent_alpha = -1;
};

TEST(EvaluatorGateTest, StaticallyRejectedCandidateNeverReachesIntegrator) {
  GateFixture fx;
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&fx.dataset, sim);
  gp::SpeedupConfig config;
  config.static_gate = river::MakeStaticGate(sim, &fx.dataset);
  gp::FitnessEvaluator evaluator(&fx.knowledge.grammar, &fitness, config);

  // If the integrator ran at all, this injection would trip the
  // non-finite-derivative watchdog and the outcome would be
  // kNonFiniteDerivative instead of kStaticReject.
  std::string error;
  ASSERT_TRUE(SetFaultSpec("derivative_nan:always", &error)) << error;
  gp::Individual individual = fx.MakeDivergent(11);
  evaluator.EvaluateBatch({&individual}, nullptr);
  ClearFaults();

  EXPECT_EQ(individual.outcome, EvalOutcome::kStaticReject);
  EXPECT_DOUBLE_EQ(individual.fitness, kPenaltyFitness);
  EXPECT_TRUE(individual.fully_evaluated);
  EXPECT_EQ(evaluator.stats().static_rejects, 1u);
  EXPECT_EQ(evaluator.stats().outcomes[static_cast<std::size_t>(
                EvalOutcome::kStaticReject)],
            1u);
  // No integration work: zero time steps, no full evaluations, no cache
  // traffic (rejects bypass the tree cache entirely).
  EXPECT_EQ(evaluator.stats().time_steps_evaluated, 0u);
  EXPECT_EQ(evaluator.stats().full_evaluations, 0u);
  EXPECT_EQ(evaluator.stats().cache_lookups, 0u);
  EXPECT_EQ(evaluator.cache_size(), 0u);
  // The frontier is untouched by the penalty.
  EXPECT_EQ(evaluator.best_prev_full(), kInf);
}

TEST(EvaluatorGateTest, VerdictIsCachedByStructure) {
  GateFixture fx;
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&fx.dataset, sim);
  gp::SpeedupConfig config;
  config.static_gate = river::MakeStaticGate(sim, &fx.dataset);
  gp::FitnessEvaluator evaluator(&fx.knowledge.grammar, &fitness, config);

  gp::Individual first = fx.MakeDivergent(3);
  gp::Individual second = fx.MakeDivergent(4);
  // Different (in-domain) parameters, same structure: one verdict entry.
  second.parameters[0] = fx.knowledge.priors[0].lo;
  evaluator.EvaluateBatch({&first}, nullptr);
  evaluator.EvaluateBatch({&second}, nullptr);
  EXPECT_EQ(evaluator.stats().static_rejects, 2u);
  EXPECT_EQ(evaluator.verdict_cache_size(), 1u);
  EXPECT_EQ(second.outcome, EvalOutcome::kStaticReject);
}

TEST(EvaluatorGateTest, OutOfDomainParametersSkipTheGate) {
  GateFixture fx;
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&fx.dataset, sim);
  gp::SpeedupConfig config;
  config.static_gate = river::MakeStaticGate(sim, &fx.dataset);
  gp::FitnessEvaluator evaluator(&fx.knowledge.grammar, &fitness, config);

  // Finite but outside the prior boxes: the structure-keyed verdict is not
  // trustworthy, so the candidate must integrate (and the watchdog, not
  // the gate, contains it).
  gp::Individual individual = fx.MakeDivergent(5);
  individual.parameters.assign(individual.parameters.size(), 1e6);
  evaluator.EvaluateBatch({&individual}, nullptr);
  EXPECT_NE(individual.outcome, EvalOutcome::kStaticReject);
  EXPECT_EQ(evaluator.stats().static_rejects, 0u);
  EXPECT_GT(evaluator.stats().time_steps_evaluated, 0u);
}

TEST(EvaluatorGateTest, GateOnIsBitIdenticalToGateOffOnCleanPopulation) {
  core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const river::RiverDataset dataset = TinyDataset(40);
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset, sim);

  gp::SpeedupConfig off;
  off.tree_caching = true;
  off.short_circuiting = true;
  gp::SpeedupConfig on = off;
  on.static_gate = river::MakeStaticGate(sim, &dataset);

  gp::FitnessEvaluator evaluator_off(&knowledge.grammar, &fitness, off);
  gp::FitnessEvaluator evaluator_on(&knowledge.grammar, &fitness, on);

  Rng rng(97);
  for (int i = 0; i < 16; ++i) {
    gp::Individual a_ind;
    a_ind.genotype = t::GrowRandom(knowledge.grammar, 0, 6 + i % 5, rng);
    a_ind.parameters = gp::PriorMeans(knowledge.priors);
    gp::Individual b_ind = a_ind.Clone();
    evaluator_off.EvaluateBatch({&a_ind}, nullptr);
    evaluator_on.EvaluateBatch({&b_ind}, nullptr);
    ASSERT_EQ(a_ind.fitness, b_ind.fitness) << "individual " << i;
    ASSERT_EQ(a_ind.outcome, b_ind.outcome) << "individual " << i;
    ASSERT_EQ(a_ind.fully_evaluated, b_ind.fully_evaluated)
        << "individual " << i;
  }
  // The random river population is clean: nothing was rejected, so the two
  // evaluators took identical code paths (same cache, same frontier).
  EXPECT_EQ(evaluator_on.stats().static_rejects, 0u);
  EXPECT_EQ(evaluator_on.best_prev_full(), evaluator_off.best_prev_full());
  EXPECT_EQ(evaluator_on.cache_size(), evaluator_off.cache_size());
}

TEST(EvalStatsTest, MergeAddsStaticRejects) {
  gp::EvalStats stats;
  stats.static_rejects = 2;
  gp::EvalStats other;
  other.static_rejects = 5;
  other.outcomes[static_cast<std::size_t>(EvalOutcome::kStaticReject)] = 5;
  stats.Merge(other);
  EXPECT_EQ(stats.static_rejects, 7u);
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(
                EvalOutcome::kStaticReject)],
            5u);
}

TEST(EvalOutcomeTest, StaticRejectNameAndPenaltyClass) {
  EXPECT_STREQ(EvalOutcomeName(EvalOutcome::kStaticReject), "static_reject");
  EXPECT_TRUE(IsPenalizedOutcome(EvalOutcome::kStaticReject));
}

// ------------------------------------------------------ dataflow framework ----

TEST(DataflowTest, SharedSubtreesAreEvaluatedOncePerPass) {
  a::DomainEnv env;
  env.variables = {a::Interval::Of(1.0, 2.0)};
  const e::ExprPtr x = e::Variable(0, "x");
  // Add(x, x) shares the x node; the memo must visit it once.
  const e::ExprPtr sum = e::Add(x, x);
  a::DataflowPass<a::IntervalDomain> pass(a::IntervalDomain{&env});
  const a::Interval value = pass.Evaluate(*sum);
  EXPECT_DOUBLE_EQ(value.lo, 2.0);
  EXPECT_DOUBLE_EQ(value.hi, 4.0);
  EXPECT_EQ(pass.nodes_visited(), 2u);
  // Re-evaluating hits the memo: no new nodes.
  pass.Evaluate(*sum);
  EXPECT_EQ(pass.nodes_visited(), 2u);
}

TEST(DataflowTest, WalkAddressesHandsOutChildIndexPaths) {
  const e::ExprPtr tree =
      e::Add(e::Variable(0, "x"), e::Mul(e::Constant(2.0), e::Variable(0, "x")));
  std::vector<std::vector<int>> addresses;
  a::WalkAddresses(*tree, [&](const e::Expr&, const std::vector<int>& address) {
    addresses.push_back(address);
  });
  const std::vector<std::vector<int>> want = {
      {}, {0}, {1}, {1, 0}, {1, 1}};
  EXPECT_EQ(addresses, want);
}

// ------------------------------------------------------------- units pass ----

TEST(UnitsTest, FormatDimSpellings) {
  EXPECT_EQ(a::FormatDim(a::Dim::Any()), "?");
  EXPECT_EQ(a::FormatDim(a::Dim::Dimensionless()), "1");
  EXPECT_EQ(a::FormatDim(a::Dim::Concentration()), "M*L^-3");
  EXPECT_EQ(a::FormatDim(a::Dim::PerTime()), "T^-1");
}

TEST(UnitsTest, ConstantsArePolymorphic) {
  const a::UnitsEnv env = river::RiverUnitsEnv();
  // B_Phy + 3 is fine: the constant absorbs M·L⁻³, like the paper's R.
  const e::ExprPtr ok =
      e::Add(e::Variable(river::kBPhy, "B_Phy"), e::Constant(3.0));
  const a::UnitsResult result = a::AnalyzeUnits(*ok, env);
  EXPECT_TRUE(result.Consistent());
  EXPECT_EQ(result.dim, a::Dim::Concentration());
}

TEST(UnitsTest, MismatchedSumIsFlaggedOnceAndRecoversWithAny) {
  const a::UnitsEnv env = river::RiverUnitsEnv();
  // Θ + L is a provable mismatch; the enclosing product must not cascade
  // into a second finding.
  const e::ExprPtr bad = e::Mul(
      e::Add(e::Variable(river::kVtmp, "V_tmp"),
             e::Variable(river::kVsd, "V_sd")),
      e::Variable(river::kBPhy, "B_Phy"));
  const a::UnitsResult result = a::AnalyzeUnits(*bad, env);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_STREQ(result.findings[0].code, "units-mismatch");
  EXPECT_FALSE(result.dim.known);
}

TEST(UnitsTest, TranscendentalArgumentsMustBeDimensionless) {
  const a::UnitsEnv env = river::RiverUnitsEnv();
  const e::ExprPtr bad = e::Log(e::Variable(river::kVn, "V_n"));
  const a::UnitsResult result = a::AnalyzeUnits(*bad, env);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_STREQ(result.findings[0].code, "units-transcendental");
  EXPECT_TRUE(result.dim.IsDimensionless());
  // A dimensionless ratio is fine: V_n / (C_N + V_n).
  const e::ExprPtr ok = e::Log(
      e::Div(e::Variable(river::kVn, "V_n"),
             e::Add(e::Parameter(river::kCN, "C_N"),
                    e::Variable(river::kVn, "V_n"))));
  EXPECT_TRUE(a::AnalyzeUnits(*ok, env).Consistent());
}

TEST(UnitsTest, ExpertRiverProcessIsDimensionallyConsistent) {
  const a::SystemUnitsResult result =
      a::AnalyzeSystemUnits(river::ManualProcess(), river::RiverUnitsEnv());
  EXPECT_TRUE(result.Consistent());
  ASSERT_EQ(result.equations.size(), 2u);
  // Both derivatives come out as concentration per time.
  EXPECT_EQ(result.equations[0].dim, a::Dim::Of(1, -3, -1));
  EXPECT_EQ(result.equations[1].dim, a::Dim::Of(1, -3, -1));
}

// -------------------------------------------------------------- sign pass ----

TEST(SignTest, SignOfIntervalAndFormatting) {
  EXPECT_EQ(a::SignOfInterval(a::Interval::Of(0.5, 2.0)), a::kSignPos);
  EXPECT_EQ(a::SignOfInterval(a::Interval::Of(-2.0, -0.5)), a::kSignNeg);
  EXPECT_EQ(a::SignOfInterval(a::Interval::Of(-1.0, 1.0)),
            a::kSignNeg | a::kSignZero | a::kSignPos);
  EXPECT_EQ(a::FormatSignSet(a::kSignNeg), "{-}");
  EXPECT_EQ(a::FormatSignSet(a::kSignAll), "{-,0,+,NaN}");
}

TEST(SignTest, ProtectedDivisionAlwaysReachesPositive) {
  // The protection band maps |denominator| < eps to 1, so every division
  // can produce a positive value regardless of operand signs.
  EXPECT_NE(a::ApplyBinarySign(e::NodeKind::kDiv, a::kSignNeg, a::kSignPos) &
                a::kSignPos,
            0);
}

TEST(SignTest, StrictlyNegativeLossTermIsFlagged) {
  a::DomainEnv env = river::LintDomains();
  // B_Phy * C_UA - (0 - C_UA) * C_FS: the subtracted product is provably
  // strictly negative (C_UA in [0.1, 4], C_FS in [4, 6]).
  const e::ExprPtr eq = e::Sub(
      e::Mul(e::Variable(river::kBPhy, "B_Phy"),
             e::Parameter(river::kCUA, "C_UA")),
      e::Mul(e::Sub(e::Constant(0.0), e::Parameter(river::kCUA, "C_UA")),
             e::Parameter(river::kCFS, "C_FS")));
  const a::MassBalanceResult result = a::CheckMassBalance(*eq, env);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_STREQ(result.findings[0].code, "loss-term-adds-mass");
}

TEST(SignTest, ExpertRiverProcessIsMassBalanceClean) {
  const a::DomainEnv env = river::LintDomains();
  for (const e::ExprPtr& eq : river::ManualProcess()) {
    EXPECT_TRUE(a::CheckMassBalance(*eq, env).Consistent());
  }
}

// ---------------------------------------------------------- activity pass ----

TEST(ActivityTest, ExactIndependenceIsPruned) {
  a::DomainEnv env;
  env.variables = {a::Interval::Of(1.0, 2.0)};
  env.parameters = {a::Interval::Of(0.5, 1.5), a::Interval::Of(0.5, 1.5)};
  const e::ExprPtr x = e::Variable(0, "x");
  const e::ExprPtr p = e::Parameter(0, "p");
  // x - x is exactly zero over a finite range: no slot is active.
  EXPECT_EQ(a::AnalyzeActivity(*e::Sub(x, x), env), a::Activity{});
  // 0 * p is exactly zero while p stays finite.
  EXPECT_EQ(a::AnalyzeActivity(*e::Mul(e::Constant(0.0), p), env),
            a::Activity{});
  // A plain sum depends on both slots.
  const a::Activity both = a::AnalyzeActivity(*e::Add(x, p), env);
  EXPECT_EQ(both.variables, a::ActivityBit(0));
  EXPECT_EQ(both.parameters, a::ActivityBit(0));
  // Unbounded ranges disable the pruning guards (x - x could be inf - inf).
  env.variables[0] = a::Interval::All();
  EXPECT_EQ(a::AnalyzeActivity(*e::Sub(x, x), env).variables,
            a::ActivityBit(0));
}

TEST(ActivityTest, SlotsBeyondSixtyThreeShareTheStickyBit) {
  EXPECT_EQ(a::ActivityBit(63), a::ActivityBit(200));
  a::Activity activity;
  activity.parameters = a::ActivityBit(100);
  // The sticky bit is never reported inactive.
  const std::vector<int> inactive = a::InactiveParameters(activity, 70);
  for (const int slot : inactive) EXPECT_LT(slot, 63);
}

TEST(ActivityTest, OutputClosureExcludesUnreferencedEquations) {
  a::DomainEnv env;
  env.variables = {a::Interval::Of(0.0, 10.0), a::Interval::Of(0.0, 10.0)};
  env.parameters = {a::Interval::Of(0.1, 4.0), a::Interval::Of(0.0, 0.3)};
  // eq0 references only state 0; eq1's parameter can never reach output 0.
  const std::vector<e::ExprPtr> equations = {
      e::Mul(e::Variable(0, "B_Phy"), e::Parameter(0, "C_UA")),
      e::Mul(e::Variable(1, "B_Zoo"), e::Parameter(1, "C_UZ")),
  };
  const a::Activity closure = a::OutputClosureActivity(equations, 0, env);
  EXPECT_EQ(closure.variables, a::ActivityBit(0));
  EXPECT_EQ(closure.parameters, a::ActivityBit(0));
  const std::vector<int> inactive = a::InactiveParameters(closure, 2);
  ASSERT_EQ(inactive.size(), 1u);
  EXPECT_EQ(inactive[0], 1);
  // Coupling eq0 to state 1 pulls eq1 (and its parameter) into the closure.
  const std::vector<e::ExprPtr> coupled = {
      e::Mul(e::Variable(1, "B_Zoo"), e::Parameter(0, "C_UA")),
      e::Mul(e::Variable(1, "B_Zoo"), e::Parameter(1, "C_UZ")),
  };
  const a::Activity full = a::OutputClosureActivity(coupled, 0, env);
  EXPECT_EQ(full.parameters, a::ActivityBit(0) | a::ActivityBit(1));
  EXPECT_TRUE(a::InactiveParameters(full, 2).empty());
}

TEST(ActivityTest, ExpertRiverProcessHasNoInactiveLiveParameters) {
  // Parameters the expert process never mentions may legitimately be
  // inactive; what must not happen is a *live* parameter being reported.
  const a::Activity closure = a::OutputClosureActivity(
      river::ManualProcess(), river::kBPhy, river::LintDomains());
  const std::vector<int> inactive =
      a::InactiveParameters(closure, river::kNumParameters);
  const a::LintResult lint = a::LintEquations(
      river::ManualProcess(), river::LintDomains(), a::LintOptions{});
  for (const int slot : inactive) {
    for (const int live : lint.live_parameters) {
      EXPECT_NE(slot, live) << "live parameter reported inactive";
    }
  }
}

// ------------------------------------------------------ grammar dimensions ----

TEST(GrammarDimensionTest, BuiltinRiverGrammarPrunesNothing) {
  core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const a::GrammarDimensionResult result = a::AnalyzeGrammarDimensions(
      knowledge.grammar, river::RiverUnitsEnv());
  EXPECT_TRUE(result.inconsistent_betas.empty());
  EXPECT_TRUE(result.diagnostics.empty());
  // Pruning is therefore a no-op: search trajectories are unchanged.
  const std::size_t betas_before = knowledge.grammar.num_beta_trees();
  EXPECT_TRUE(a::PruneDimensionInconsistentBetas(&knowledge.grammar,
                                                 river::RiverUnitsEnv())
                  .empty());
  EXPECT_EQ(knowledge.grammar.num_beta_trees(), betas_before);
}

TEST(GrammarDimensionTest, InternallyMismatchedBetaIsFlaggedAndPruned) {
  std::istringstream spec(R"(# gmr-grammar v1
slot R 0.0 1.0
alpha seed Conc : B_Phy + V_n
beta grow Conc : FOOT * R
beta bad Conc : FOOT + (V_tmp + V_sd)
)");
  t::Grammar grammar;
  std::string error;
  ASSERT_TRUE(a::ParseGrammarSpec(spec, river::RiverSymbols(), &grammar,
                                  &error))
      << error;
  const a::UnitsEnv env = river::RiverUnitsEnv();
  const a::GrammarDimensionResult result =
      a::AnalyzeGrammarDimensions(grammar, env);
  // The alpha pins label Conc to M·L⁻³; 'bad' has an internal Θ + L
  // mismatch independent of its foot binding.
  ASSERT_EQ(result.inconsistent_betas.size(), 1u);
  EXPECT_EQ(grammar.beta(result.inconsistent_betas[0]).name(), "bad");
  const auto context = result.label_context.find("Conc");
  ASSERT_NE(context, result.label_context.end());
  EXPECT_EQ(context->second, a::Dim::Concentration());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, "dimension-inconsistent-beta");
  EXPECT_EQ(result.diagnostics[0].severity, a::Severity::kWarning);
  // Pruning removes 'bad' from the adjunction candidates while keeping the
  // tree registered (indices stay stable).
  const std::vector<int> pruned =
      a::PruneDimensionInconsistentBetas(&grammar, env);
  EXPECT_EQ(pruned, result.inconsistent_betas);
  EXPECT_EQ(grammar.num_beta_trees(), 2u);
  const std::vector<int> candidates = grammar.BetasWithRootLabel("Conc");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(grammar.beta(candidates[0]).name(), "grow");
}

// -------------------------------------------------- static gate rule wiring ----

TEST(StaticGateTest, GateRuleNamesAreStable) {
  EXPECT_STREQ(a::GateRuleName(a::GateRule::kNone), "none");
  EXPECT_STREQ(a::GateRuleName(a::GateRule::kIntervalNegInf),
               "interval_neg_inf");
  EXPECT_STREQ(a::GateRuleName(a::GateRule::kIntervalSaturation),
               "interval_saturation");
  EXPECT_STREQ(a::GateRuleName(a::GateRule::kUnitsMismatch),
               "units_mismatch");
  EXPECT_STREQ(a::GateRuleName(a::GateRule::kSignViolation),
               "sign_violation");
}

TEST(StaticGateTest, UnitsAndSignChecksAreOptIn) {
  a::StaticGateConfig config;
  config.enabled = true;
  config.domains = river::LintDomains();
  const std::vector<e::ExprPtr> dim_bad{
      e::Add(e::Variable(river::kVtmp, "V_tmp"),
             e::Variable(river::kVsd, "V_sd"))};
  const std::vector<e::ExprPtr> sign_bad{e::Sub(
      e::Mul(e::Variable(river::kBPhy, "B_Phy"),
             e::Parameter(river::kCUA, "C_UA")),
      e::Mul(e::Sub(e::Constant(0.0), e::Parameter(river::kCUA, "C_UA")),
             e::Parameter(river::kCFS, "C_FS")))};
  // Default config: neither check runs, neither candidate is rejected.
  EXPECT_FALSE(a::AnalyzeCandidate(dim_bad, config).reject);
  EXPECT_FALSE(a::AnalyzeCandidate(sign_bad, config).reject);
  // Opt in.
  config.check_units = true;
  config.units = river::RiverUnitsEnv();
  config.check_sign = true;
  {
    const a::StaticVerdict verdict = a::AnalyzeCandidate(dim_bad, config);
    EXPECT_TRUE(verdict.reject);
    EXPECT_EQ(verdict.rule, a::GateRule::kUnitsMismatch);
    EXPECT_EQ(verdict.equation, 0);
  }
  {
    const a::StaticVerdict verdict = a::AnalyzeCandidate(sign_bad, config);
    EXPECT_TRUE(verdict.reject);
    EXPECT_EQ(verdict.rule, a::GateRule::kSignViolation);
  }
  // The expert process passes with both checks on.
  EXPECT_FALSE(a::AnalyzeCandidate(river::ManualProcess(), config).reject);
}

TEST(EvaluatorGateTest, RuleCountersAndVerdictCacheStats) {
  GateFixture fx;
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&fx.dataset, sim);
  gp::SpeedupConfig config;
  config.static_gate = river::MakeStaticGate(sim, &fx.dataset);
  gp::FitnessEvaluator evaluator(&fx.knowledge.grammar, &fitness, config);

  gp::Individual first = fx.MakeDivergent(3);
  gp::Individual second = fx.MakeDivergent(4);
  evaluator.EvaluateBatch({&first}, nullptr);
  evaluator.EvaluateBatch({&second}, nullptr);
  const gp::EvalStats& stats = evaluator.stats();
  EXPECT_EQ(stats.verdict_cache_lookups, 2u);
  EXPECT_EQ(stats.verdict_cache_hits, 1u);
  // Both rejects were interval-saturation rejects of the same structure.
  EXPECT_EQ(stats.gate_rule_rejects[static_cast<std::size_t>(
                a::GateRule::kIntervalSaturation)],
            2u);
  EXPECT_EQ(stats.gate_rule_rejects[static_cast<std::size_t>(
                a::GateRule::kIntervalNegInf)],
            0u);
}

TEST(EvalStatsTest, MergeAddsVerdictCacheAndRuleCounters) {
  gp::EvalStats stats;
  stats.verdict_cache_lookups = 3;
  stats.verdict_cache_hits = 1;
  stats.gate_rule_rejects[1] = 2;
  gp::EvalStats other;
  other.verdict_cache_lookups = 4;
  other.verdict_cache_hits = 2;
  other.gate_rule_rejects[1] = 5;
  stats.Merge(other);
  EXPECT_EQ(stats.verdict_cache_lookups, 7u);
  EXPECT_EQ(stats.verdict_cache_hits, 3u);
  EXPECT_EQ(stats.gate_rule_rejects[1], 7u);
}

}  // namespace
}  // namespace gmr
