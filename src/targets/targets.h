// The programs under test: MiniC re-implementations of the paper's
// subjects that preserve their *phase structure* (multiple input-dependent
// header/record loops guarding deeper parsing stages) and their *bug
// patterns* (Figs 6, 7, 8 ported nearly line-for-line), plus seed-file
// generators for each synthetic format.
//
// Formats are little-endian simplifications of the real ones; DESIGN.md
// documents each substitution.
//
//   readelf    "MELF"  executable-metadata dump (binutils readelf analog)
//   gif2tiff   "MGIF"  image converter (libtiff gif2tiff analog)
//   pngtest    "MPNG"  png round-trip test (libpng pngtest analog)
//   tiff2rgba  "MTIF"  CIELab -> RGBA converter (Fig 6 bug)
//   tiff2bw    "MTIF"  grayscale converter
//   dwarfdump  "MDWF"  debug-info dump (libdwarf dwarfdump analog)
//   tcpdump    "MPCP"  packet printer (negative control: no deep parsing,
//                       no bugs — matches the paper's tcpdump result)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace pbse::targets {

// --- MiniC sources ----------------------------------------------------------
const char* readelf_source();
const char* gif2tiff_source();
const char* pngtest_source();
const char* tiff2rgba_source();
const char* tiff2bw_source();
const char* dwarfdump_source();
const char* tcpdump_source();

/// Compiles `source`, finalizes and verifies the module. Aborts with a
/// diagnostic on any error (target sources are compiled-in constants).
ir::Module build_target(const char* source);

// --- Seed generators ---------------------------------------------------------
// Each returns a VALID file of the synthetic format that exercises the deep
// phases; `scale` stretches repeated sections to reach paper-like sizes.

std::vector<std::uint8_t> make_melf_seed(unsigned scale = 4);
std::vector<std::uint8_t> make_mgif_seed(unsigned scale = 4);
std::vector<std::uint8_t> make_mpng_seed(unsigned scale = 4);
std::vector<std::uint8_t> make_mtif_seed(unsigned scale = 4);
/// A seed that triggers the Fig 6 CIELab out-of-bounds read in tiff2rgba
/// (for the Fig 5 buggy-seed experiment).
std::vector<std::uint8_t> make_mtif_buggy_seed();
std::vector<std::uint8_t> make_mdwf_seed(unsigned scale = 4);
std::vector<std::uint8_t> make_mpcp_seed(unsigned scale = 4);

// --- Registry ----------------------------------------------------------------

struct TargetInfo {
  std::string package;      // "libpng", "libtiff", ...
  std::string driver;       // "pngtest", "gif2tiff", ...
  const char* (*source)();  // MiniC source
  std::vector<std::uint8_t> (*seed)(unsigned scale);
  /// Real-world CVE ids the injected bugs are analogs of (count == number
  /// of injected bug sites expected reachable by pbSE; "N" = no CVE).
  std::vector<std::string> cve_analogs;
};

/// All targets, in the paper's Table III order.
const std::vector<TargetInfo>& all_targets();

/// The target whose driver name is `driver`, or nullptr. Callers report
/// an unknown name in their own way.
const TargetInfo* find_target(const std::string& driver);

// --- Input-size caps ---------------------------------------------------------
// Every entry point (the pbse CLI, pbse-client submit, JobSpec::from_json)
// accepts seed scales and symbolic file sizes in [1, cap]. Larger values
// only exhaust memory in the seed generator or the symbolic file; the
// largest scale any bench uses is 96 and the largest size 10000.

inline constexpr unsigned kMaxSeedScale = 1024;
inline constexpr unsigned kMaxSymSize = 1u << 20;  // 1 MiB

}  // namespace pbse::targets
