// Noise-constrained (h, k) optimization through core::optimize: an inactive
// budget degenerates to the unconstrained optimum, an active budget is met
// at the smallest delay cost, both technology nodes.

#include <gtest/gtest.h>

#include <string>

#include "rlc/core/delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace {

using rlc::StatusCode;
using rlc::core::DelayOptions;
using rlc::core::optimize;
using rlc::core::optimize_rlc;
using rlc::core::OptimizeRequest;
using rlc::core::OptimResult;
using rlc::core::segment_delay;
using rlc::core::Technology;

constexpr double kL = 1.0e-6;  // 1 nH/mm

/// A 2-conductor bus request with cc = ccf * c and the given budget.
OptimizeRequest bus_request(const Technology& t, double ccf, double km,
                            double vmax) {
  OptimizeRequest req;
  req.l = kL;
  req.conductors = 2;
  req.coupling_cc = ccf * t.line(kL).c;
  req.coupling_km = km;
  req.constraints.noise_vmax = vmax;
  return req;
}

/// The quiet-neighbour effective line the bus is sized on.
rlc::tline::LineParams effective_line(const Technology& t,
                                      const OptimizeRequest& req) {
  rlc::tline::LineParams eff = t.line(req.l);
  eff.c += req.coupling_cc;  // 2 conductors: one Miller-1 neighbour
  return eff;
}

class NoiseOptimizer : public ::testing::TestWithParam<const char*> {
 protected:
  Technology tech() const {
    return std::string(GetParam()) == "250nm" ? Technology::nm250()
                                              : Technology::nm100();
  }
};

TEST_P(NoiseOptimizer, InactiveConstraintMatchesUnconstrained) {
  const Technology t = tech();
  const OptimizeRequest req = bus_request(t, 0.25, 0.2, /*vmax=*/0.9);

  const auto r = optimize(t, req);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_TRUE(r->has_noise);
  EXPECT_FALSE(r->noise_constraint_active);
  EXPECT_LE(r->peak_noise, req.constraints.noise_vmax);

  // Bitwise the unconstrained solve on the quiet-neighbour effective line
  // (delay trivially within the 1% acceptance bound).
  const OptimResult un = optimize_rlc(t.rep, effective_line(t, req), req.optim);
  ASSERT_TRUE(un.converged);
  EXPECT_EQ(r->sizing.h, un.h);
  EXPECT_EQ(r->sizing.k, un.k);
  EXPECT_NEAR(r->sizing.delay_per_length, un.delay_per_length,
              0.01 * un.delay_per_length);
}

TEST_P(NoiseOptimizer, ActiveConstraintMeetsTheBudget) {
  const Technology t = tech();
  const OptimizeRequest probe = bus_request(t, 0.3, 0.3, /*vmax=*/0.9);
  const auto free_run = optimize(t, probe);
  ASSERT_TRUE(free_run.is_ok()) << free_run.status().to_string();
  ASSERT_GT(free_run->peak_noise, 0.0);

  // Budget at 60% of the unconstrained noise forces the boundary.
  OptimizeRequest req = probe;
  req.constraints.noise_vmax = 0.6 * free_run->peak_noise;
  const double vmax = req.constraints.noise_vmax;
  const auto r = optimize(t, req);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r->noise_constraint_active);
  EXPECT_LE(r->peak_noise, vmax * (1.0 + 1e-6));
  // The boundary solution sits on the budget, not far inside it.
  EXPECT_GT(r->peak_noise, 0.95 * vmax);
  // Constrained delay cannot beat the unconstrained optimum; the budget is
  // bought by upsizing the repeaters above the unconstrained size.
  EXPECT_GE(r->sizing.delay_per_length,
            free_run->sizing.delay_per_length * (1.0 - 1e-9));
  EXPECT_GT(r->sizing.k, free_run->sizing.k);
}

// Regression: once the budget binds, the reported delay is the requested
// f-delay at the answer, not the 50% delay.
TEST_P(NoiseOptimizer, ActiveConstraintReportsTheRequestedThresholdDelay) {
  const Technology t = tech();
  for (const double f : {0.4, 0.7}) {
    OptimizeRequest req = bus_request(t, 0.3, 0.3, /*vmax=*/0.9);
    req.optim.f = f;
    const auto free_run = optimize(t, req);
    ASSERT_TRUE(free_run.is_ok()) << f << ": " << free_run.status().to_string();
    req.constraints.noise_vmax = 0.6 * free_run->peak_noise;
    const auto r = optimize(t, req);
    ASSERT_TRUE(r.is_ok()) << f << ": " << r.status().to_string();
    ASSERT_TRUE(r->noise_constraint_active) << f;

    DelayOptions d;
    d.f = f;
    const rlc::core::DelayResult expect = segment_delay(
        t.rep, effective_line(t, req), r->sizing.h, r->sizing.k, d);
    ASSERT_TRUE(expect.converged) << f;
    EXPECT_EQ(r->sizing.tau, expect.tau) << f;
    EXPECT_EQ(r->sizing.delay_per_length, expect.tau / r->sizing.h) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(BothNodes, NoiseOptimizer,
                         ::testing::Values("250nm", "100nm"));

TEST(NoiseOptimizerValidation, RejectsBadRequests) {
  const Technology t = Technology::nm250();
  const auto code = [&](const OptimizeRequest& req) {
    return optimize(t, req).status().code();
  };
  OptimizeRequest req = bus_request(t, 0.3, 0.2, 0.1);
  req.conductors = 9;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = bus_request(t, 0.3, 0.2, 0.1);
  req.coupling_cc = -1.0;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = bus_request(t, 0.3, 0.2, 0.1);
  req.coupling_km = 1.0;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = bus_request(t, 0.3, 0.2, 0.1);
  req.coupling_km = -1.0;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  // A budget needs a bus.
  req = OptimizeRequest{};
  req.l = kL;
  req.constraints.noise_vmax = 0.1;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
}

TEST(NoiseOptimizerValidation, KmBoundNarrowsOnAThreeConductorBus) {
  // Three lines: l (I + km A) is positive definite only for
  // |km| < 1/sqrt(2), so km = 0.8 is refused up front, naming the field.
  const Technology t = Technology::nm250();
  const double bound = rlc::tline::coupling_km_bound(3);
  OptimizeRequest req = bus_request(t, 0.3, 0.8, 0.0);
  req.conductors = 3;
  const rlc::Status st = rlc::core::validate_optimize_request(req);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("coupling_km"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("conductors = 3"), std::string::npos)
      << st.message();
  for (double km : {1.001 * bound, -1.001 * bound}) {
    req.coupling_km = km;
    EXPECT_EQ(rlc::core::validate_optimize_request(req).code(),
              StatusCode::kInvalidArgument)
        << km;
  }
  for (double km : {0.999 * bound, -0.999 * bound}) {
    req.coupling_km = km;
    EXPECT_TRUE(rlc::core::validate_optimize_request(req).is_ok()) << km;
  }
  // A pair still takes any |km| < 1.
  req.conductors = 2;
  req.coupling_km = 0.8;
  EXPECT_TRUE(rlc::core::validate_optimize_request(req).is_ok());

  // Just inside the three-line bound the bus is still sized, with its
  // victim noise.
  req.conductors = 3;
  req.coupling_km = 0.70;
  const auto r = optimize(t, req);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r->has_noise);
  EXPECT_GT(r->peak_noise, 0.0);
}

}  // namespace
