// Tests for task graphs: construction, XML round-trips (including the
// paper's Code Segment 1 shape), validation and flattening of nested
// groups.
#include <gtest/gtest.h>

#include "core/graph/taskgraph.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/graph/validate.hpp"
#include "core/unit/registry.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// The paper's Code Segment 1: Wave -> [Gaussian -> FFT] -> Grapher with
/// the middle two grouped as "GroupTask".
TaskGraph code_segment_1() {
  TaskGraph inner("GroupTaskInner");
  ParamSet gp;
  gp.set_double("stddev", 1.0);
  inner.add_task("Gaussian", "Gaussian", gp);
  inner.add_task("FFT", "FFT");
  inner.connect("Gaussian", 0, "FFT", 0);

  TaskGraph g("GroupTest");
  ParamSet wp;
  wp.set_double("freq", 50.0);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("GroupTask", std::move(inner), "parallel");
  grp.group_inputs = {GroupPort{"Gaussian", 0}};
  grp.group_outputs = {GroupPort{"FFT", 0}};
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "GroupTask", 0);
  g.connect("GroupTask", 0, "Grapher", 0);
  return g;
}

TEST(TaskGraph, BuildAndQuery) {
  TaskGraph g = code_segment_1();
  EXPECT_EQ(g.tasks().size(), 3u);
  EXPECT_EQ(g.total_task_count(), 4u);  // Wave, Gaussian, FFT, Grapher
  EXPECT_NE(g.task("Wave"), nullptr);
  EXPECT_EQ(g.task("Nope"), nullptr);
  EXPECT_THROW(g.require_task("Nope"), std::out_of_range);
  EXPECT_TRUE(g.task("GroupTask")->is_group());
  EXPECT_EQ(g.inputs_of("Grapher").size(), 1u);
  EXPECT_EQ(g.outputs_of("Wave").size(), 1u);
}

TEST(TaskGraph, DuplicateNameRejected) {
  TaskGraph g("x");
  g.add_task("A", "Wave");
  EXPECT_THROW(g.add_task("A", "FFT"), std::invalid_argument);
  EXPECT_THROW(g.add_group("A", TaskGraph("i"), ""), std::invalid_argument);
}

TEST(TaskGraph, CloneIsDeep) {
  TaskGraph g = code_segment_1();
  TaskGraph c = g.clone();
  c.task("Wave")->params.set_double("freq", 99.0);
  c.task("GroupTask")->group->task("Gaussian")->params.set_double("stddev",
                                                                  9.0);
  EXPECT_DOUBLE_EQ(g.task("Wave")->params.get_double("freq", 0), 50.0);
  EXPECT_DOUBLE_EQ(
      g.task("GroupTask")->group->task("Gaussian")->params.get_double(
          "stddev", 0),
      1.0);
}

TEST(TaskGraphXml, RoundTripPreservesEverything) {
  TaskGraph g = code_segment_1();
  const std::string doc = write_taskgraph(g);
  TaskGraph back = parse_taskgraph(doc);

  EXPECT_EQ(back.name(), g.name());
  EXPECT_EQ(back.tasks().size(), g.tasks().size());
  EXPECT_EQ(back.connections().size(), g.connections().size());
  const TaskDef* grp = back.task("GroupTask");
  ASSERT_NE(grp, nullptr);
  ASSERT_TRUE(grp->is_group());
  EXPECT_EQ(grp->policy, "parallel");
  ASSERT_EQ(grp->group_inputs.size(), 1u);
  EXPECT_EQ(grp->group_inputs[0].inner_task, "Gaussian");
  EXPECT_DOUBLE_EQ(
      back.task("Wave")->params.get_double("freq", 0), 50.0);
  // Round-trip again: stable.
  EXPECT_EQ(write_taskgraph(back), doc);
}

TEST(TaskGraphXml, RejectsWrongRoot) {
  EXPECT_THROW(parse_taskgraph("<notagraph/>"), xml::XmlError);
}

TEST(TaskGraphXml, ConnectionLabelsRoundTrip) {
  TaskGraph g("x");
  g.add_task("A", "Wave");
  g.add_task("B", "Grapher");
  g.connect("A", 0, "B", 0).label = "chan-7";
  TaskGraph back = parse_taskgraph(write_taskgraph(g));
  EXPECT_EQ(back.connections()[0].label, "chan-7");
}

TEST(Validate, AcceptsTheReferenceGraph) {
  EXPECT_TRUE(validate(code_segment_1(), reg()).ok());
}

TEST(Validate, UnknownUnitType) {
  TaskGraph g("x");
  g.add_task("A", "NoSuchUnit");
  auto r = validate(g, reg());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("NoSuchUnit"), std::string::npos);
}

TEST(Validate, UnknownTasksInConnection) {
  TaskGraph g("x");
  g.add_task("A", "Wave");
  g.connect("A", 0, "Ghost", 0);
  g.connect("Phantom", 0, "A", 0);
  auto r = validate(g, reg());
  EXPECT_EQ(r.issues.size(), 2u);
}

TEST(Validate, PortRangeChecked) {
  TaskGraph g("x");
  g.add_task("A", "Wave");     // 1 output
  g.add_task("B", "Grapher");  // 1 input
  g.connect("A", 3, "B", 0);
  g.connect("A", 0, "B", 9);
  auto r = validate(g, reg());
  EXPECT_EQ(r.issues.size(), 2u);
}

TEST(Validate, TypeMismatchFlagged) {
  TaskGraph g("x");
  g.add_task("W", "Wave");        // emits sample-set
  g.add_task("P", "SpectrumPeak");  // wants spectrum
  g.connect("W", 0, "P", 0);
  auto r = validate(g, reg());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("incompatible"), std::string::npos);
}

TEST(Validate, DoubleConnectedInputFlagged) {
  TaskGraph g("x");
  g.add_task("A", "Wave");
  g.add_task("B", "Wave");
  g.add_task("S", "Grapher");
  g.connect("A", 0, "S", 0);
  g.connect("B", 0, "S", 0);
  auto r = validate(g, reg());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("already connected"), std::string::npos);
}

TEST(Validate, CycleDetected) {
  TaskGraph g("x");
  g.add_task("A", "Scaler");
  g.add_task("B", "Scaler");
  g.connect("A", 0, "B", 0);
  g.connect("B", 0, "A", 0);
  auto r = validate(g, reg());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("cycle"), std::string::npos);
}

TEST(Validate, GroupPortMapChecked) {
  TaskGraph inner("i");
  inner.add_task("T", "FFT");
  TaskGraph g("x");
  TaskDef& grp = g.add_group("G", std::move(inner), "");
  grp.group_inputs = {GroupPort{"Missing", 0}};
  grp.group_outputs = {GroupPort{"T", 5}};
  auto r = validate(g, reg());
  EXPECT_EQ(r.issues.size(), 2u);
}

TEST(Validate, RecursesIntoGroups) {
  TaskGraph inner("i");
  inner.add_task("Bad", "NotAUnit");
  TaskGraph g("x");
  g.add_group("G", std::move(inner), "");
  auto r = validate(g, reg());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.issues[0].where.find("G/"), std::string::npos);
}

TEST(Validate, OrThrowThrowsWithAllIssues) {
  TaskGraph g("x");
  g.add_task("A", "Alpha");
  g.add_task("B", "Beta");
  try {
    validate_or_throw(g, reg());
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Alpha"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Beta"), std::string::npos);
  }
}

TEST(Flatten, InlinesGroupsWithPrefixedNames) {
  TaskGraph flat = flatten(code_segment_1());
  EXPECT_EQ(flat.tasks().size(), 4u);
  EXPECT_NE(flat.task("GroupTask/Gaussian"), nullptr);
  EXPECT_NE(flat.task("GroupTask/FFT"), nullptr);
  EXPECT_EQ(flat.task("GroupTask"), nullptr);

  // Connections re-wired through the port maps.
  bool wave_to_gauss = false, fft_to_grapher = false, inner_kept = false;
  for (const auto& c : flat.connections()) {
    if (c.from_task == "Wave" && c.to_task == "GroupTask/Gaussian") {
      wave_to_gauss = true;
    }
    if (c.from_task == "GroupTask/FFT" && c.to_task == "Grapher") {
      fft_to_grapher = true;
    }
    if (c.from_task == "GroupTask/Gaussian" && c.to_task == "GroupTask/FFT") {
      inner_kept = true;
    }
  }
  EXPECT_TRUE(wave_to_gauss);
  EXPECT_TRUE(fft_to_grapher);
  EXPECT_TRUE(inner_kept);
  EXPECT_TRUE(validate(flat, reg()).ok());
}

TEST(Flatten, NestedGroupsResolveRecursively) {
  // innermost: a single FFT
  TaskGraph innermost("deep");
  innermost.add_task("F", "FFT");
  // middle group wraps it
  TaskGraph middle("middle");
  TaskDef& mg = middle.add_group("Inner", std::move(innermost), "");
  mg.group_inputs = {GroupPort{"F", 0}};
  mg.group_outputs = {GroupPort{"F", 0}};
  // outer graph: Wave -> Outer(Inner(F)) -> Grapher
  TaskGraph g("top");
  g.add_task("Wave", "Wave");
  TaskDef& og = g.add_group("Outer", std::move(middle), "");
  og.group_inputs = {GroupPort{"Inner", 0}};
  og.group_outputs = {GroupPort{"Inner", 0}};
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "Outer", 0);
  g.connect("Outer", 0, "Grapher", 0);

  TaskGraph flat = flatten(g);
  EXPECT_NE(flat.task("Outer/Inner/F"), nullptr);
  bool wired = false;
  for (const auto& c : flat.connections()) {
    if (c.from_task == "Wave" && c.to_task == "Outer/Inner/F") wired = true;
  }
  EXPECT_TRUE(wired);
  EXPECT_TRUE(validate(flat, reg()).ok());
}

}  // namespace
}  // namespace cg::core
