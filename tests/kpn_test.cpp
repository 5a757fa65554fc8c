#include <gtest/gtest.h>

#include "kpn/application.hpp"
#include "util/error.hpp"

namespace rtsm::kpn {
namespace {

/// Minimal two-process pipeline used across the tests here.
Application two_stage(std::uint32_t tokens = 16) {
  QosConstraints qos;
  qos.symbol_period_ns = 1000;
  Application app("two-stage", qos);
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ChannelId c = app.connect(a, b, tokens);

  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10};
  ia.outputs = {{c, {tokens}}};
  app.add_implementation(a, std::move(ia));

  Implementation ib;
  ib.name = "B@T";
  ib.tile_type = "T";
  ib.wcet_cc = {10};
  ib.inputs = {{c, {tokens}}};
  app.add_implementation(b, std::move(ib));
  return app;
}

TEST(Application, ZeroPeriodRejected) {
  QosConstraints qos;
  qos.symbol_period_ns = 0;
  EXPECT_THROW(Application("x", qos), Error);
}

TEST(Application, DuplicateProcessNameRejected) {
  Application app("x", QosConstraints{});
  app.add_process("P");
  EXPECT_THROW(app.add_process("P"), Error);
}

TEST(Application, SelfLoopRejected) {
  Application app("x", QosConstraints{});
  const ProcessId p = app.add_process("P");
  EXPECT_THROW(app.connect(p, p, 8), Error);
}

TEST(Application, ZeroTokenChannelRejected) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  EXPECT_THROW(app.connect(a, b, 0), Error);
}

TEST(Application, ChannelBookkeeping) {
  const Application app = two_stage();
  const ProcessId a = app.process_by_name("A");
  const ProcessId b = app.process_by_name("B");
  EXPECT_EQ(app.out_channels(a).size(), 1u);
  EXPECT_EQ(app.in_channels(a).size(), 0u);
  EXPECT_EQ(app.in_channels(b).size(), 1u);
  const Channel& c = app.channel(app.out_channels(a)[0]);
  EXPECT_EQ(c.src, a);
  EXPECT_EQ(c.dst, b);
  EXPECT_EQ(c.name, "A->B");
}

TEST(Application, UnknownProcessByNameThrows) {
  const Application app = two_stage();
  EXPECT_THROW((void)app.process_by_name("nope"), Error);
}

TEST(Application, ValidatePasses) {
  const Application app = two_stage();
  EXPECT_NO_THROW(app.validate());
}

TEST(Application, ValidateCatchesMissingImplementation) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ChannelId c = app.connect(a, b, 8);
  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10};
  ia.outputs = {{c, {8}}};
  app.add_implementation(a, std::move(ia));
  EXPECT_THROW(app.validate(), Error);  // B has no implementation
}

TEST(Application, ValidateCatchesDisconnected) {
  Application app("x", QosConstraints{});
  app.add_process("A");
  app.add_process("B");
  EXPECT_THROW(app.validate(), Error);
}

TEST(Application, ValidateCatchesUncoveredPort) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  app.connect(a, b, 8);
  Implementation ia;  // no output port for the channel
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10};
  app.add_implementation(a, std::move(ia));
  Implementation ib;
  ib.name = "B@T";
  ib.tile_type = "T";
  ib.wcet_cc = {10};
  ib.inputs = {{ChannelId{0}, {8}}};
  app.add_implementation(b, std::move(ib));
  EXPECT_THROW(app.validate(), Error);
}

TEST(Application, ValidateCatchesNonIntegralRate) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ChannelId c = app.connect(a, b, 10);
  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10};
  ia.outputs = {{c, {3}}};  // 10 % 3 != 0
  app.add_implementation(a, std::move(ia));
  Implementation ib;
  ib.name = "B@T";
  ib.tile_type = "T";
  ib.wcet_cc = {10};
  ib.inputs = {{c, {10}}};
  app.add_implementation(b, std::move(ib));
  EXPECT_THROW(app.validate(), Error);
}

TEST(Application, ValidateCatchesPortPhaseMismatch) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ChannelId c = app.connect(a, b, 8);
  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10, 20};       // 2 phases
  ia.outputs = {{c, {8}}};     // 1 phase -> mismatch
  EXPECT_THROW(app.add_implementation(a, std::move(ia)), Error);
}

TEST(Application, CyclesPerSymbol) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ChannelId c = app.connect(a, b, 64);
  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10, 20, 30};
  ia.outputs = {{c, {0, 0, 8}}};  // 8 per cycle -> 8 cycles/symbol
  const ImplementationId impl = app.add_implementation(a, std::move(ia));
  EXPECT_EQ(app.cycles_per_symbol(a, impl), 8u);
}

TEST(Application, TokensPerSecond) {
  const Application app = two_stage(16);  // 16 tokens per 1000 ns
  const ChannelId c{0};
  EXPECT_DOUBLE_EQ(app.tokens_per_second(c), 16e6);
  EXPECT_DOUBLE_EQ(app.bits_per_second(c), 16e6 * 32);
}

TEST(Application, FixturesArePinned) {
  Application app("x", QosConstraints{});
  const ProcessId f = app.add_fixture("SRC", "tile7");
  EXPECT_TRUE(app.process(f).is_fixture());
  EXPECT_EQ(*app.process(f).pinned_tile, "tile7");
}

TEST(Implementation, ValidateShapeChecksDeadPorts) {
  Implementation im;
  im.name = "x";
  im.tile_type = "T";
  im.wcet_cc = {1, 2};
  im.inputs = {{ChannelId{0}, {0, 0}}};  // never reads
  EXPECT_THROW(im.validate_shape(), Error);
}

TEST(Implementation, CycleWcet) {
  Implementation im;
  im.wcet_cc = {18, 32, 18};
  EXPECT_EQ(im.cycle_wcet_cc(), 68u);
}

TEST(Implementation, PhaseBuilders) {
  const PhaseRates r = phases({{8, 2}, {0, 1}, {8, 3}});
  EXPECT_EQ(r, (PhaseRates{8, 8, 0, 8, 8, 8}));
  EXPECT_EQ(uniform_phases(1, 4), (PhaseRates{1, 1, 1, 1}));
}

TEST(Implementation, TokensPerCycle) {
  const PortSpec port{ChannelId{0}, {8, 0, 8}};
  EXPECT_EQ(Implementation::tokens_per_cycle(port), 16u);
}

/// The text of the rtsm::Error @p fn throws ("" when it does not throw).
template <class F>
std::string error_text(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Contract failures keep their exact messages although the messages are
// built only once a check has failed.
TEST(Application, OutOfRangeIdsNameTheApplicationOrProcess) {
  const Application app = two_stage();
  EXPECT_EQ(error_text([&] { (void)app.process(ProcessId{7}); }),
            "process id out of range in application 'two-stage'");
  EXPECT_EQ(error_text([&] { (void)app.channel(ChannelId{3}); }),
            "channel id out of range in application 'two-stage'");
  EXPECT_EQ(error_text([&] {
              (void)app.implementation(ProcessId{0}, ImplementationId{2});
            }),
            "implementation id out of range for process 'A'");
  EXPECT_EQ(error_text([&] { (void)app.in_channels(ProcessId{}); }),
            "process id out of range in application 'two-stage'");
}

TEST(Application, InconsistentCyclesPerSymbolMessages) {
  Application app("x", QosConstraints{});
  const ProcessId a = app.add_process("A");
  const ProcessId b = app.add_process("B");
  const ProcessId d = app.add_process("D");
  const ChannelId ab = app.connect(a, b, 10);
  const ChannelId ad = app.connect(a, d, 8);
  Implementation ia;
  ia.name = "A@T";
  ia.tile_type = "T";
  ia.wcet_cc = {10};
  ia.outputs = {{ab, {3}}, {ad, {8}}};  // 10 % 3 != 0
  const ImplementationId non_integral =
      app.add_implementation(a, std::move(ia));
  Implementation ia2;
  ia2.name = "A2@T";
  ia2.tile_type = "T";
  ia2.wcet_cc = {10};
  ia2.outputs = {{ab, {5}}, {ad, {8}}};  // 2 cycles vs. 1 cycle
  const ImplementationId mismatched =
      app.add_implementation(a, std::move(ia2));
  EXPECT_EQ(error_text([&] { (void)app.cycles_per_symbol(a, non_integral); }),
            "implementation 'A@T': 10 tokens/symbol on channel 'A->B' is not "
            "a multiple of 3 tokens/cycle");
  EXPECT_EQ(error_text([&] { (void)app.cycles_per_symbol(a, mismatched); }),
            "implementation 'A2@T': ports imply different cycles-per-symbol "
            "counts");
}

}  // namespace
}  // namespace rtsm::kpn
