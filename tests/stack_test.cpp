// Tests: stack assembly, describe() and the report module.
#include <gtest/gtest.h>

#include "horus/report.h"
#include "horus/world.h"
#include "test_layers.h"

namespace pa {
namespace {

TEST(Stack, StandardCompositionOrder) {
  Stack s{StackSpec::paper()};
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.layer(0).name(), "frag");
  EXPECT_EQ(s.layer(1).name(), "seq");
  EXPECT_EQ(s.layer(2).name(), "window");
  EXPECT_EQ(s.layer(3).name(), "bottom");
}

TEST(Stack, AllOptionsComposition) {
  Stack s{StackSpec{}
              .add(pass_layer())
              .add(beacon_layer(vt_ms(25)))
              .add(LayerSpec::frag_layer({/*threshold=*/8192}))
              .add(LayerSpec::seq_layer())
              .add(LayerSpec::window_layer({}))
              .add(LayerSpec::window_layer({}))
              .add(LayerSpec::bottom_layer({}))};
  ASSERT_EQ(s.size(), 7u);
  EXPECT_EQ(s.layer(0).name(), "pass");
  EXPECT_EQ(s.layer(1).name(), "group-gossip");
  EXPECT_EQ(s.layer(2).name(), "frag");
  EXPECT_EQ(s.layer(5).name(), "window");
}

TEST(Stack, NakReplacesWindow) {
  StackSpec spec = StackSpec::paper();
  *spec.find(LayerSpec::Type::kWindow) = LayerSpec::nak_layer();
  Stack s{spec};
  EXPECT_EQ(s.find(LayerKind::kWindow), nullptr);
  ASSERT_NE(s.find(LayerKind::kCustom), nullptr);
  EXPECT_EQ(s.find(LayerKind::kCustom)->name(), "nak");
}

TEST(Stack, DoubleInitThrows) {
  Stack s{StackSpec::paper()};
  s.init();
  EXPECT_THROW(s.init(), std::logic_error);
}

TEST(Stack, DescribeListsLayersAndFields) {
  Stack s{StackSpec::paper()};
  s.init();
  std::string d = s.describe();
  EXPECT_NE(d.find("window"), std::string::npos);
  EXPECT_NE(d.find("bottom"), std::string::npos);
  EXPECT_NE(d.find("registered header fields"), std::string::npos);
}

TEST(Stack, FindNthInstance) {
  StackSpec spec;
  for (int i = 0; i < 3; ++i) spec.add(LayerSpec::window_layer({}));
  spec.add(LayerSpec::bottom_layer({}));
  Stack s{spec};
  Layer* w0 = s.find(LayerKind::kWindow, 0);
  Layer* w2 = s.find(LayerKind::kWindow, 2);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w2, nullptr);
  EXPECT_NE(w0, w2);
  EXPECT_EQ(s.find(LayerKind::kWindow, 3), nullptr);
}

TEST(Report, RendersNonZeroCountersOnly) {
  EngineStats s;
  s.app_sends = 3;
  s.fast_sends = 2;
  std::string r = report(s);
  EXPECT_NE(r.find("pa_engine_app_sends_total 3"), std::string::npos);
  EXPECT_NE(r.find("pa_engine_fast_sends_total 2"), std::string::npos);
  EXPECT_EQ(r.find("malformed"), std::string::npos);  // zero: omitted
}

TEST(Report, AllKindsRender) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)dst;
  src->send(std::vector<std::uint8_t>{1});
  w.run();
  EXPECT_FALSE(report(src->engine().stats()).empty());
  EXPECT_FALSE(report(b.router().stats()).empty());
  EXPECT_FALSE(report(a.gc().stats()).empty());
  EXPECT_FALSE(report(src->pa()->pool().stats()).empty());
  EXPECT_FALSE(report(w.network().stats()).empty());
}

}  // namespace
}  // namespace pa
