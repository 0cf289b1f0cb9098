#include <gtest/gtest.h>

#include "engine/decision_engine.h"
#include "linalg/eigen.h"
#include "optimize/positivstellensatz.h"
#include "optimize/sos.h"
#include "util/rng.h"
#include "worlds/monotone.h"

namespace epi {
namespace {

TEST(Sos, PerfectSquareIsDecomposed) {
  // (x - y)^2 = x^2 - 2xy + y^2.
  const std::size_t s = 2;
  Polynomial x = Polynomial::variable(s, 0);
  Polynomial y = Polynomial::variable(s, 1);
  Polynomial f = (x - y).pow(2);
  auto cert = sos_decompose(f);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(is_psd(cert->gram, 1e-7));
  EXPECT_LT(cert->to_polynomial(s).max_coeff_difference(f), 1e-6);
}

TEST(Sos, SumOfTwoSquares) {
  // x^2 y^2 + (x + y)^2 * 0.5 + 2.
  const std::size_t s = 2;
  Polynomial x = Polynomial::variable(s, 0);
  Polynomial y = Polynomial::variable(s, 1);
  Polynomial f = (x * y).pow(2) + (x + y).pow(2) * 0.5 + Polynomial::constant(s, 2.0);
  EXPECT_TRUE(is_sos(f));
}

TEST(Sos, OddDegreeRejected) {
  const std::size_t s = 1;
  Polynomial x = Polynomial::variable(s, 0);
  EXPECT_FALSE(sos_decompose(x.pow(3)).has_value());
}

TEST(Sos, NegativePolynomialRejected) {
  const std::size_t s = 1;
  Polynomial f = Polynomial::constant(s, -1.0);
  SdpOptions opts;
  opts.max_iterations = 300;
  EXPECT_FALSE(sos_decompose(f, opts).has_value());
}

TEST(Sos, MotzkinIsNotSos) {
  // The classic witness that Sigma^2 is a strict subset of the nonnegative
  // polynomials (Section 6.2).
  SdpOptions opts;
  opts.max_iterations = 600;
  EXPECT_FALSE(is_sos(motzkin_polynomial(), opts));
}

TEST(Sos, RandomSumsOfSquaresAreRecognized) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t s = 2;
    // Random quadratic g, f = g^2 (+ h^2).
    Polynomial g(s);
    for (const Monomial& m : monomials_up_to_degree(s, 1)) {
      g.add_term(m, 2.0 * rng.next_double() - 1.0);
    }
    Polynomial h(s);
    for (const Monomial& m : monomials_up_to_degree(s, 1)) {
      h.add_term(m, 2.0 * rng.next_double() - 1.0);
    }
    Polynomial f = g * g + h * h;
    EXPECT_TRUE(is_sos(f)) << "trial " << trial;
  }
}

TEST(BoxCertificate, CertifiesXTimesOneMinusX) {
  // f = x(1-x) >= 0 on [0,1]: sigma0 = 0, multiplier = 1.
  const std::size_t s = 1;
  Polynomial x = Polynomial::variable(s, 0);
  Polynomial f = x - x * x;
  auto cert = prove_nonneg_on_box(f, 2);
  ASSERT_TRUE(cert.has_value());
  EXPECT_LT(cert->to_polynomial(s).max_coeff_difference(f), 1e-6);
  EXPECT_TRUE(is_psd(cert->sigma0.gram, 1e-7));
  for (const auto& mult : cert->multipliers) {
    EXPECT_TRUE(is_psd(mult.gram, 1e-7));
  }
}

TEST(BoxCertificate, CertifiesShiftedSquarePlusBox) {
  // f = (x - y)^2 + 3 x(1-x) + y(1-y), nonnegative on the unit box.
  const std::size_t s = 2;
  Polynomial x = Polynomial::variable(s, 0);
  Polynomial y = Polynomial::variable(s, 1);
  Polynomial f = (x - y).pow(2) + (x - x * x) * 3.0 + (y - y * y);
  auto cert = prove_nonneg_on_box(f, 2);
  ASSERT_TRUE(cert.has_value());
  EXPECT_LT(cert->to_polynomial(s).max_coeff_difference(f), 1e-6);
}

TEST(BoxCertificate, RejectsNegativeSpot) {
  // f = 0.1 - x is negative on part of [0,1]; no certificate can exist.
  const std::size_t s = 1;
  Polynomial x = Polynomial::variable(s, 0);
  Polynomial f = Polynomial::constant(s, 0.1) - x;
  SdpOptions opts;
  opts.max_iterations = 500;
  EXPECT_FALSE(prove_nonneg_on_box(f, 2, opts).has_value());
}

TEST(SosProductSafety, IndependentPairIsImmediatelySafe) {
  const unsigned n = 2;
  WorldSet a(n), b(n);
  for (World w = 0; w < 4; ++w) {
    if (world_bit(w, 0)) a.insert(w);
    if (world_bit(w, 1)) b.insert(w);
  }
  EXPECT_EQ(sos_product_safety(a, b), Verdict::kSafe);
}

TEST(SosProductSafety, CertifiesMonotonePairAtN2) {
  // A up-set, B down-set: safe by Corollary 5.5; the SOS layer should find
  // an independent analytic proof.
  const unsigned n = 2;
  WorldSet a = up_closure(WorldSet(n, {0b11}));
  WorldSet b = down_closure(WorldSet(n, {0b01}));
  EXPECT_EQ(sos_product_safety(a, b), Verdict::kSafe);
}

TEST(SosProductSafety, PaperExampleX1Bar) {
  // The paper's example after Theorem 5.7: A = X1, B = X1-bar ∪ X2 is safe
  // but not independent; the SOS certificate proves it.
  const unsigned n = 2;
  WorldSet x1(n), x2(n);
  for (World w = 0; w < 4; ++w) {
    if (world_bit(w, 0)) x1.insert(w);
    if (world_bit(w, 1)) x2.insert(w);
  }
  WorldSet b = (~x1) | x2;
  EXPECT_EQ(sos_product_safety(x1, b), Verdict::kSafe);
}

TEST(SosProductSafety, UnsafePairIsNotCertified) {
  // A = B = {11}: clearly unsafe; no certificate may be produced.
  const unsigned n = 2;
  WorldSet a(n, {3});
  SdpOptions opts;
  opts.max_iterations = 400;
  EXPECT_EQ(sos_product_safety(a, a, 0, opts), Verdict::kUnknown);
}

TEST(ProductEngine, SosStageCertifiesRemark512) {
  // The Remark 5.12 pair defeats every combinatorial criterion yet is safe;
  // the product-prior engine's SOS stage certifies it at its default budget.
  const unsigned n = 3;
  WorldSet a = WorldSet::from_strings(n, {"011", "100", "110", "111"});
  WorldSet b = WorldSet::from_strings(n, {"010", "101", "110", "111"});
  AuditContext ctx;
  const EngineDecision d =
      DecisionEngine(n, PriorAssumption::kProduct).decide(a, b, ctx);
  EXPECT_EQ(d.verdict, Verdict::kSafe);
  EXPECT_EQ(d.method, "sos-certificate");
  EXPECT_TRUE(d.certified);
}

}  // namespace
}  // namespace epi
