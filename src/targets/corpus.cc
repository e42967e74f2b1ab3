// Target registry and the shared build helper.
#include <cstdio>
#include <cstdlib>

#include "ir/verifier.h"
#include "lang/codegen.h"
#include "targets/targets.h"

namespace pbse::targets {

ir::Module build_target(const char* source) {
  ir::Module module;
  std::string error;
  if (!minic::compile(source, module, error)) {
    std::fprintf(stderr, "target compile error: %s\n", error.c_str());
    std::abort();
  }
  module.finalize();
  const auto problems = ir::verify(module);
  if (!problems.empty()) {
    for (const auto& p : problems)
      std::fprintf(stderr, "target verifier: %s\n", p.c_str());
    std::abort();
  }
  return module;
}

const std::vector<TargetInfo>& all_targets() {
  static const auto* targets = new std::vector<TargetInfo>{
      {"libpng", "pngtest", &pngtest_source, &make_mpng_seed,
       {"CVE-2015-7981", "CVE-2015-8540"}},
      {"libtiff", "gif2tiff", &gif2tiff_source, &make_mgif_seed, {"N", "N"}},
      {"libtiff", "tiff2rgba", &tiff2rgba_source, &make_mtif_seed, {"N"}},
      {"libtiff", "tiff2bw", &tiff2bw_source, &make_mtif_seed, {"N", "N"}},
      {"libdwarf", "dwarfdump", &dwarfdump_source, &make_mdwf_seed,
       {"CVE-2015-8538", "N", "CVE-2015-8750", "CVE-2016-2050", "N", "N", "N",
        "CVE-2016-2091", "N", "CVE-2014-9482"}},
      {"binutils", "readelf", &readelf_source, &make_melf_seed,
       {"N", "N", "N", "N"}},
      {"tcpdump", "tcpdump", &tcpdump_source, &make_mpcp_seed, {}},
  };
  return *targets;
}

const TargetInfo* find_target(const std::string& driver) {
  for (const TargetInfo& t : all_targets())
    if (t.driver == driver) return &t;
  return nullptr;
}

}  // namespace pbse::targets
