// io_uring-backed driver LabMod (paper §III-G "Re-implementation
// Overhead"): for deployments that prefer the kernel's well-tested
// policies, a LabMod can submit through kernel APIs instead of the
// bypass path — inheriting kernel functionality at kernel cost.
//
// Functionally identical to KernelDriverMod; the software charge is
// the io_uring route (one syscall + the kernel block spine) instead of
// a direct hardware-queue submit.
#pragma once

#include "kernelsim/paths.h"
#include "labmods/drivers.h"

namespace labstor::labmods {

class UringDriverMod final : public DriverModBase {
 public:
  UringDriverMod() : DriverModBase("uring_driver", 1) {}
  sim::Time EstProcessingTime() const override { return 8 * sim::kUs; }

 protected:
  sim::Time SubmitCost(const sim::SoftwareCosts& costs,
                       const ipc::Request& req) const override {
    (void)req;
    return kernelsim::ApiOverhead(kernelsim::ApiKind::kIoUring, costs);
  }
  std::string_view trace_tag() const override { return "uring_driver"; }
};

}  // namespace labstor::labmods
