// Focused hydrological-process properties (paper Appendix A, Eq. (9)):
// pulse travel times, retention smoothing, conservation-style invariants,
// and multi-branch topologies beyond the Nakdong fixture.

#include <gtest/gtest.h>

#include <cmath>

#include "river/network.h"

namespace gmr::river {
namespace {

HydrologicalProcess::Input MakeInput(std::size_t num_stations) {
  HydrologicalProcess::Input input;
  input.attributes.resize(num_stations);
  input.rainfall.resize(num_stations);
  input.base_flow.assign(num_stations, 0.0);
  return input;
}

TEST(HydrologyPulseTest, RainPulseArrivesAfterTravelTime) {
  // A -> B with a 3-day travel time: a rain spike at A on day 5 must
  // raise B's flow on day 8, not earlier.
  RiverNetwork network;
  const int a = network.AddStation("A");
  const int b = network.AddStation("B");
  network.AddReach(a, b, /*travel_days=*/3, /*retention=*/0.0);

  const std::size_t days = 20;
  auto input = MakeInput(2);
  input.base_flow = {5.0, 5.0};
  for (std::size_t s = 0; s < 2; ++s) {
    input.attributes[s] = {std::vector<double>(days, 1.0)};
    input.rainfall[s] = std::vector<double>(days, 0.0);
  }
  // Pulse after the initialization transient has died out.
  input.rainfall[static_cast<std::size_t>(a)][12] = 100.0;

  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(input);
  const auto& flow_b = out.flow[static_cast<std::size_t>(b)];
  // Near-steady flow before arrival (travel time 3: arrival on day 15).
  EXPECT_NEAR(flow_b[14], flow_b[13], 0.01);
  // Clear spike on the arrival day, not before.
  EXPECT_GT(flow_b[15], flow_b[14] + 50.0);
}

TEST(HydrologyPulseTest, AttributePulseDilutesDownstream) {
  // A conductivity spike at the upstream station must appear downstream
  // delayed and attenuated (mixed with retained water).
  RiverNetwork network;
  const int a = network.AddStation("A");
  const int b = network.AddStation("B");
  network.AddReach(a, b, 1, /*retention=*/0.5);

  const std::size_t days = 30;
  auto input = MakeInput(2);
  input.base_flow = {10.0, 10.0};
  std::vector<double> attr_a(days, 100.0);
  for (std::size_t t = 10; t < 13; ++t) attr_a[t] = 500.0;  // spike
  input.attributes[static_cast<std::size_t>(a)] = {attr_a};
  input.attributes[static_cast<std::size_t>(b)] = {
      std::vector<double>(days, 100.0)};
  input.rainfall[static_cast<std::size_t>(a)] =
      std::vector<double>(days, 0.0);
  input.rainfall[static_cast<std::size_t>(b)] =
      std::vector<double>(days, 0.0);

  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(input);
  const auto& attr_b = out.attributes[static_cast<std::size_t>(b)][0];
  double peak = 0.0;
  for (std::size_t t = 0; t < days; ++t) peak = std::max(peak, attr_b[t]);
  EXPECT_GT(peak, 120.0);  // The spike reaches B...
  EXPECT_LT(peak, 500.0);  // ...attenuated by mixing.
  // Before the spike can arrive, B stays at baseline.
  EXPECT_NEAR(attr_b[9], 100.0, 1.0);
}

TEST(HydrologyPulseTest, FlowReachesSteadyStateUnderConstantInput) {
  RiverNetwork network;
  const int a = network.AddStation("A");
  const int b = network.AddStation("B");
  network.AddReach(a, b, 1, 0.4);
  const std::size_t days = 200;
  auto input = MakeInput(2);
  input.base_flow = {10.0, 4.0};
  for (std::size_t s = 0; s < 2; ++s) {
    input.attributes[s] = {std::vector<double>(days, 1.0)};
    input.rainfall[s] = std::vector<double>(days, 2.0);
  }
  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(input);
  // Geometric convergence: F_A* = (base+rain)/(1-r_A)... here retention of
  // A defaults to 0.3 (no inbound reach sets it) -> F_A* = 12/0.7.
  const double fa = out.flow[static_cast<std::size_t>(a)][days - 1];
  EXPECT_NEAR(fa, 12.0 / 0.7, 1e-6);
  EXPECT_NEAR(out.flow[static_cast<std::size_t>(a)][days - 2], fa, 1e-6);
  // B steady state: r_B F_B + (1-r_A) F_A* + 6 = F_B ->
  // F_B* = ((1-0.3)*F_A* + 6)/(1-0.4).
  const double fb_expected = (0.7 * fa + 6.0) / 0.6;
  EXPECT_NEAR(out.flow[static_cast<std::size_t>(b)][days - 1], fb_expected,
              1e-6);
}

TEST(HydrologyPulseTest, ThreeWayConfluenceWeighting) {
  // Three sources with flows 60/30/10 and attribute values 1/2/3: the
  // merge must converge to the flow-weighted mean 1.5... computed from
  // steady flows.
  RiverNetwork network;
  const int a = network.AddStation("A");
  const int b = network.AddStation("B");
  const int c = network.AddStation("C");
  const int join = network.AddStation("J", /*is_virtual=*/true);
  network.AddReach(a, join, 1, 0.0);
  network.AddReach(b, join, 1, 0.0);
  network.AddReach(c, join, 1, 0.0);
  const std::size_t days = 100;
  auto input = MakeInput(4);
  input.base_flow = {60.0, 30.0, 10.0, 0.0};
  const double values[] = {1.0, 2.0, 3.0};
  for (int s = 0; s < 3; ++s) {
    input.attributes[static_cast<std::size_t>(s)] = {
        std::vector<double>(days, values[s])};
    input.rainfall[static_cast<std::size_t>(s)] =
        std::vector<double>(days, 0.0);
  }
  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(input);
  // Source retention defaults to 0.3; steady flows scale all three sources
  // equally, so the weighted mean is (60*1 + 30*2 + 10*3)/100 = 1.5.
  EXPECT_NEAR(out.attributes[static_cast<std::size_t>(join)][0][days - 1],
              1.5, 1e-6);
}

TEST(HydrologyPulseTest, NakdongSinkBlendsAllStations) {
  // Give exactly one station a distinctive attribute value; the sink's mix
  // must move toward it but stay strictly between the two source values.
  const RiverNetwork network = RiverNetwork::Nakdong();
  const std::size_t days = 120;
  auto input = MakeInput(network.num_stations());
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    if (network.station(static_cast<int>(s)).is_virtual) continue;
    const bool special = network.station(static_cast<int>(s)).name == "T2";
    input.attributes[s] = {
        std::vector<double>(days, special ? 10.0 : 1.0)};
    input.rainfall[s] = std::vector<double>(days, 1.0);
    input.base_flow[s] = 10.0;
  }
  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(input);
  const auto sink = static_cast<std::size_t>(network.Sink());
  const double mixed = out.attributes[sink][0][days - 1];
  EXPECT_GT(mixed, 1.0);
  EXPECT_LT(mixed, 10.0);
}

}  // namespace
}  // namespace gmr::river
