#ifndef SPCA_OBS_RUNTIME_H_
#define SPCA_OBS_RUNTIME_H_

#include <string_view>

#include "obs/registry.h"

namespace spca::obs {

/// Records which kernel ISA tier this process dispatched to (see
/// linalg/kernel_dispatch.h) into `registry`:
///
///   kernel.isa_id        = numeric tier (0 scalar, 1 avx2)
///   kernel.isa.<name>    = 1
///
/// Dispatch is resolved once per process, so recording is idempotent —
/// call it from every entry point that owns a registry (the CLIs, the
/// benches, ProjectionService) and traces/metrics dumps always say which
/// kernel tier served the run. A null registry is a no-op. The obs layer
/// takes the name/id as parameters (rather than calling the dispatcher
/// itself) to stay independent of linalg.
void RecordKernelIsa(Registry* registry, std::string_view isa_name,
                     int isa_id);

}  // namespace spca::obs

#endif  // SPCA_OBS_RUNTIME_H_
