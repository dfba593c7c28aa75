// Tests for the standard-cell library: switch networks and logic, NLDM
// tables, characterization behaviours, layout generation and the library
// cache, plus validation of the drive-ratio delay-scaling approximation the
// back-annotation relies on.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/geom/polygon_ops.h"
#include "src/stdcell/cell_spec.h"
#include "src/stdcell/characterize.h"
#include "src/stdcell/layout_gen.h"
#include "src/stdcell/liberty_writer.h"
#include "src/stdcell/library.h"
#include "src/stdcell/library_io.h"

namespace poc {
namespace {

/// Reference truth tables keyed by cell name; index = input bitmask with
/// input 0 as bit 0.
bool reference_output(const std::string& cell, unsigned mask) {
  const bool a = mask & 1, b = mask & 2, c = mask & 4;
  if (cell.starts_with("INV")) return !a;
  if (cell.starts_with("NAND2")) return !(a && b);
  if (cell.starts_with("NAND3")) return !(a && b && c);
  if (cell.starts_with("NOR2")) return !(a || b);
  if (cell.starts_with("NOR3")) return !(a || b || c);
  if (cell.starts_with("AOI21")) return !((a && b) || c);
  if (cell.starts_with("OAI21")) return !((a || b) && c);
  check_fail("reference_output", cell.c_str(), __FILE__, __LINE__);
}

TEST(NetExpr, DualSwapsSeriesParallel) {
  const auto e = NetExpr::series(
      {NetExpr::leaf(0), NetExpr::parallel({NetExpr::leaf(1), NetExpr::leaf(2)})});
  const auto d = e.dual();
  EXPECT_EQ(d.kind, NetExpr::Kind::kParallel);
  EXPECT_EQ(d.children[1].kind, NetExpr::Kind::kSeries);
  EXPECT_EQ(e.num_devices(), 3u);
  EXPECT_EQ(e.stack_depth(), 2u);
  EXPECT_EQ(d.stack_depth(), 2u);
}

class CellLogic : public ::testing::TestWithParam<std::string> {};

TEST_P(CellLogic, TruthTableMatchesReference) {
  const auto specs = standard_cell_specs();
  const CellSpec& spec = find_spec(specs, GetParam());
  const std::size_t n = spec.inputs.size();
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<bool> in(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = (mask >> i) & 1u;
    EXPECT_EQ(spec.eval(in), reference_output(spec.name, mask))
        << spec.name << " mask " << mask;
    // Complementarity (De Morgan): the PMOS pull-up, whose switches close
    // on low inputs, conducts exactly when the pull-down does not.
    std::vector<bool> inverted(n);
    for (std::size_t i = 0; i < n; ++i) inverted[i] = !in[i];
    EXPECT_NE(spec.pulldown.conducts(in), spec.pullup().conducts(inverted))
        << "complementarity " << spec.name;
  }
}

TEST_P(CellLogic, EveryInputHasNoncontrollingAssignment) {
  const auto specs = standard_cell_specs();
  const CellSpec& spec = find_spec(specs, GetParam());
  for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
    const auto side = spec.noncontrolling_for(i);
    std::vector<bool> v = side;
    v[i] = true;
    const bool out_hi_in = spec.eval(v);
    v[i] = false;
    EXPECT_NE(spec.eval(v), out_hi_in);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellLogic,
                         ::testing::Values("INV_X1", "INV_X2", "INV_X4",
                                           "NAND2_X1", "NAND2_X2", "NAND3_X1",
                                           "NOR2_X1", "NOR2_X2", "NOR3_X1",
                                           "AOI21_X1", "OAI21_X1"));

TEST(Nldm, LookupBilinearAndClamped) {
  NldmTable t({10.0, 100.0}, {1.0, 10.0});
  t.set(0, 0, 1.0);
  t.set(0, 1, 2.0);
  t.set(1, 0, 3.0);
  t.set(1, 1, 4.0);
  EXPECT_DOUBLE_EQ(t.lookup(10.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.lookup(55.0, 5.5), 2.5);
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0), 1.0);      // clamped low
  EXPECT_DOUBLE_EQ(t.lookup(500.0, 100.0), 4.0);  // clamped high
  EXPECT_DOUBLE_EQ(t.scaled(2.0).lookup(10.0, 1.0), 2.0);
}

class CharFixture : public ::testing::Test {
 protected:
  static const StdCellLibrary& lib() {
    static const StdCellLibrary lib =
        StdCellLibrary::load_or_characterize(cache_path());
    return lib;
  }
  static std::string cache_path() {
    return (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
        .string();
  }
};

TEST_F(CharFixture, DelayMonotoneInLoadAndSlew) {
  const CellTiming& t = lib().timing("INV_X1");
  const TimingArc& arc = t.arcs[0];
  for (double slew : {10.0, 75.0, 300.0}) {
    EXPECT_LT(arc.delay_fall.lookup(slew, 1.0),
              arc.delay_fall.lookup(slew, 30.0));
  }
  for (double load : {1.0, 7.0, 30.0}) {
    EXPECT_LT(arc.delay_fall.lookup(10.0, load),
              arc.delay_fall.lookup(300.0, load));
  }
}

TEST_F(CharFixture, OutputSlewGrowsWithLoad) {
  const TimingArc& arc = lib().timing("NAND2_X1").arcs[0];
  EXPECT_LT(arc.slew_rise.lookup(30.0, 1.0), arc.slew_rise.lookup(30.0, 30.0));
}

TEST_F(CharFixture, HigherDriveIsFaster) {
  const double d1 =
      lib().timing("INV_X1").arcs[0].delay_fall.lookup(50.0, 20.0);
  const double d2 =
      lib().timing("INV_X2").arcs[0].delay_fall.lookup(50.0, 20.0);
  const double d4 =
      lib().timing("INV_X4").arcs[0].delay_fall.lookup(50.0, 20.0);
  EXPECT_GT(d1, d2);
  EXPECT_GT(d2, d4);
}

TEST_F(CharFixture, LaterNandInputIsNotFree) {
  // All NAND3 arcs have sane positive delays.
  const CellTiming& t = lib().timing("NAND3_X1");
  ASSERT_EQ(t.arcs.size(), 3u);
  for (const TimingArc& arc : t.arcs) {
    EXPECT_GT(arc.delay_fall.lookup(30.0, 7.0), 1.0);
    EXPECT_GT(arc.delay_rise.lookup(30.0, 7.0), 1.0);
  }
}

TEST_F(CharFixture, InputCapsAndLeakagePositive) {
  for (const CellSpec& spec : lib().specs()) {
    const CellTiming& t = lib().timing(spec.name);
    EXPECT_EQ(t.input_caps.size(), spec.inputs.size());
    for (Ff c : t.input_caps) EXPECT_GT(c, 0.2);
    EXPECT_GT(t.leakage_ua, 0.0);
    EXPECT_GT(t.output_self_cap, 0.0);
  }
}

TEST_F(CharFixture, CacheRoundTripsExactly) {
  const std::string path = cache_path() + ".roundtrip";
  save_library(lib(), path);
  const auto loaded = try_load_library(path, lib().char_params());
  ASSERT_TRUE(loaded.has_value());
  for (const CellSpec& spec : lib().specs()) {
    const CellTiming& a = lib().timing(spec.name);
    const CellTiming& b = loaded->timing(spec.name);
    EXPECT_DOUBLE_EQ(a.leakage_ua, b.leakage_ua);
    for (std::size_t arc = 0; arc < a.arcs.size(); ++arc) {
      EXPECT_DOUBLE_EQ(a.arcs[arc].delay_fall.lookup(42.0, 9.0),
                       b.arcs[arc].delay_fall.lookup(42.0, 9.0));
    }
  }
  std::filesystem::remove(path);
}

TEST_F(CharFixture, StaleCacheRejected) {
  const std::string path = cache_path() + ".stale";
  save_library(lib(), path);
  CharParams other;
  other.nmos.k_ua_per_um *= 1.1;  // different device model
  EXPECT_FALSE(try_load_library(path, other).has_value());
  CharParams other_axes = lib().char_params();
  other_axes.load_axis.back() += 1.0;
  EXPECT_FALSE(try_load_library(path, other_axes).has_value());
  EXPECT_FALSE(try_load_library("/nonexistent/file.lib", CharParams{}));
  std::filesystem::remove(path);
}

TEST_F(CharFixture, DriveRatioScalingPredictsShortChannelDelay) {
  // The back-annotation scales NLDM delay by Ion(drawn)/Ion(L).  Validate
  // against full re-characterization at L = 84 and L = 96 nm.
  const CharParams& cp = lib().char_params();
  const auto specs = standard_cell_specs();
  const CellSpec& inv = find_spec(specs, "INV_X1");
  for (double l : {84.0, 96.0}) {
    const Expected<ArcMeasurement> direct =
        measure_arc(inv, cp, 0, /*input_rising=*/true, 50.0, 10.0, l, l);
    const Expected<ArcMeasurement> nominal =
        measure_arc(inv, cp, 0, true, 50.0, 10.0, 90.0, 90.0);
    ASSERT_TRUE(direct.has_value() && nominal.has_value());
    ASSERT_TRUE(direct->valid && nominal->valid);
    const double scale = cp.nmos.ion_per_um(90.0) / cp.nmos.ion_per_um(l);
    const double predicted = nominal->delay * scale;
    // First-order model: within 10 % of the resimulated truth.
    EXPECT_NEAR(predicted / direct->delay, 1.0, 0.10) << "L=" << l;
  }
}

TEST(LayoutGen, FingerCountAndWidth) {
  const auto specs = standard_cell_specs();
  const Tech& tech = Tech::default_tech();
  EXPECT_EQ(finger_count(find_spec(specs, "INV_X1")), 1u);
  EXPECT_EQ(finger_count(find_spec(specs, "INV_X2")), 2u);
  EXPECT_EQ(finger_count(find_spec(specs, "NAND3_X1")), 3u);
  EXPECT_EQ(cell_width(find_spec(specs, "INV_X1"), tech), 300);
  EXPECT_EQ(cell_width(find_spec(specs, "NAND3_X1"), tech), 900);
}

TEST(LayoutGen, GatesAnnotatedPerFingerAndType) {
  const auto specs = standard_cell_specs();
  const Tech& tech = Tech::default_tech();
  const CellLayout cell =
      generate_cell_layout(find_spec(specs, "NAND2_X1"), tech);
  EXPECT_EQ(cell.gates.size(), 4u);  // 2 fingers x N/P
  std::size_t nmos = 0;
  for (const GateInfo& g : cell.gates) {
    if (g.is_nmos) ++nmos;
    EXPECT_EQ(g.region.width(), tech.gate_length);
    EXPECT_TRUE(cell.boundary.contains(g.region));
  }
  EXPECT_EQ(nmos, 2u);
}

TEST(LayoutGen, ShapesStayInsideBoundaryAndSpacingHolds) {
  const auto specs = standard_cell_specs();
  const Tech& tech = Tech::default_tech();
  for (const char* name : {"INV_X1", "NAND3_X1", "AOI21_X1", "INV_X4"}) {
    const CellLayout cell = generate_cell_layout(find_spec(specs, name), tech);
    std::vector<Rect> poly;
    for (const Shape& s : cell.shapes) {
      EXPECT_TRUE(cell.boundary.contains(s.poly.bbox())) << name;
      if (s.layer == Layer::kPoly) {
        for (const Rect& r : decompose(s.poly)) poly.push_back(r);
      }
    }
    // Poly-to-poly spacing >= tech.poly_space between distinct fingers.
    for (std::size_t i = 0; i < poly.size(); ++i) {
      for (std::size_t j = i + 1; j < poly.size(); ++j) {
        if (poly[i].intersects(poly[j])) continue;  // same finger pieces
        if (poly[i].yhi <= poly[j].ylo || poly[j].yhi <= poly[i].ylo) continue;
        const DbUnit gap = std::max(poly[i].xlo, poly[j].xlo) -
                           std::min(poly[i].xhi, poly[j].xhi);
        if (gap > 0) {
          EXPECT_GE(gap, tech.poly_space) << name;
        }
      }
    }
  }
}

TEST(LayoutGen, PolyFingerIsSinglePlusShapedPolygon) {
  const auto specs = standard_cell_specs();
  const CellLayout cell = generate_cell_layout(find_spec(specs, "INV_X1"),
                                               Tech::default_tech());
  std::size_t poly_shapes = 0;
  for (const Shape& s : cell.shapes) {
    if (s.layer == Layer::kPoly) {
      ++poly_shapes;
      EXPECT_EQ(s.poly.size(), 12u);  // finger + pad as one polygon
    }
  }
  EXPECT_EQ(poly_shapes, 1u);
}

TEST(LayoutGen, PinPositionsInsideCell) {
  const auto specs = standard_cell_specs();
  const Tech& tech = Tech::default_tech();
  for (const char* name : {"INV_X1", "NAND2_X1", "AOI21_X1"}) {
    const CellSpec& spec = find_spec(specs, name);
    const CellLayout cell = generate_cell_layout(spec, tech);
    for (const std::string& pin : spec.inputs) {
      EXPECT_TRUE(cell.boundary.contains(pin_position(spec, tech, pin)));
    }
    EXPECT_TRUE(
        cell.boundary.contains(pin_position(spec, tech, spec.output)));
    EXPECT_THROW(pin_position(spec, tech, "BOGUS"), CheckError);
  }
}

TEST_F(CharFixture, LongGateVariantsSlowerAndLessLeaky) {
  for (const char* base : {"INV_X1", "NAND2_X1", "NOR2_X1"}) {
    const std::string ll = long_gate_variant(base);
    ASSERT_TRUE(lib().has_cell(ll)) << ll;
    const CellTiming& fast = lib().timing(base);
    const CellTiming& slow = lib().timing(ll);
    EXPECT_GT(slow.arcs[0].delay_fall.lookup(50.0, 10.0),
              fast.arcs[0].delay_fall.lookup(50.0, 10.0));
    // Leakage falls much faster than speed (the L-biasing trade).
    EXPECT_LT(slow.leakage_ua, fast.leakage_ua * 0.75);
    const double delay_ratio = slow.arcs[0].delay_fall.lookup(50.0, 10.0) /
                               fast.arcs[0].delay_fall.lookup(50.0, 10.0);
    EXPECT_LT(delay_ratio, 1.35);
  }
}

TEST(LayoutGen, LongGateDrawsWiderPoly) {
  const auto specs = standard_cell_specs();
  const Tech& tech = Tech::default_tech();
  const CellLayout fast = generate_cell_layout(find_spec(specs, "INV_X1"), tech);
  const CellLayout slow =
      generate_cell_layout(find_spec(specs, "INV_X1_LL"), tech);
  EXPECT_EQ(slow.boundary, fast.boundary);  // same footprint
  EXPECT_EQ(slow.gates[0].drawn_l, static_cast<DbUnit>(kLongGateLengthNm));
  EXPECT_EQ(slow.gates[0].region.width(),
            static_cast<DbUnit>(kLongGateLengthNm));
  // Channel stays centred on the finger pitch.
  EXPECT_EQ(slow.gates[0].region.center().x, fast.gates[0].region.center().x);
}

TEST_F(CharFixture, LibertyExportContainsEveryCellAndParses) {
  const std::string lib_text = liberty_to_string(lib(), "poc90");
  EXPECT_NE(lib_text.find("library (poc90)"), std::string::npos);
  EXPECT_NE(lib_text.find("lu_table_template"), std::string::npos);
  for (const CellSpec& spec : lib().specs()) {
    EXPECT_NE(lib_text.find("cell (" + spec.name + ")"), std::string::npos)
        << spec.name;
  }
  // Functions are emitted for representative cells.
  EXPECT_NE(lib_text.find("function : \"!A\""), std::string::npos);
  EXPECT_NE(lib_text.find("function : \"!(A*B)\""), std::string::npos);
  EXPECT_NE(lib_text.find("function : \"!((A*B)+C)\""), std::string::npos);
  // Balanced braces (syntactic sanity for downstream parsers).
  long depth = 0;
  for (char c : lib_text) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // Values are in ns: an INV delay of tens of ps must appear as ~0.0x.
  EXPECT_NE(lib_text.find("timing_sense : negative_unate"),
            std::string::npos);
}

TEST(Library, LookupAndLayoutGeneration) {
  const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib").string());
  EXPECT_TRUE(l.has_cell("NAND2_X1"));
  EXPECT_FALSE(l.has_cell("XOR9_X1"));
  EXPECT_THROW(l.timing("XOR9_X1"), CheckError);
  const CellLayout layout = l.layout("NOR2_X1", Tech::default_tech());
  EXPECT_EQ(layout.name, "NOR2_X1");
  EXPECT_FALSE(layout.gates.empty());
}

}  // namespace
}  // namespace poc
