#include "harness/system.hh"

#include "common/logging.hh"
#include "trace/trace.hh"

namespace scusim::harness
{

std::string
to_string(ScuMode m)
{
    switch (m) {
      case ScuMode::GpuOnly:
        return "gpu-only";
      case ScuMode::ScuBasic:
        return "scu-basic";
      case ScuMode::ScuEnhanced:
        return "scu-enhanced";
    }
    return "?";
}

SystemConfig
SystemConfig::gtx980(bool with_scu)
{
    SystemConfig c;
    c.gpu = gpu::GpuParams::gtx980();
    c.scu = scu::ScuParams::forGtx980();
    c.energy = energy::EnergyParams::gtx980();
    c.withScu = with_scu;
    return c;
}

SystemConfig
SystemConfig::tx1(bool with_scu)
{
    SystemConfig c;
    c.gpu = gpu::GpuParams::tx1();
    c.scu = scu::ScuParams::forTx1();
    c.energy = energy::EnergyParams::tx1();
    c.withScu = with_scu;
    return c;
}

SystemConfig
SystemConfig::byName(const std::string &name, bool with_scu)
{
    if (name == "GTX980")
        return gtx980(with_scu);
    if (name == "TX1")
        return tx1(with_scu);
    fatal("unknown system '%s' (use GTX980 or TX1)", name.c_str());
}

bool
SystemConfig::isKnown(const std::string &name)
{
    return name == "GTX980" || name == "TX1";
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), clk(cfg.gpu.freqHz), root(""),
      emodel(cfg.energy)
{
    const unsigned n = cfg.deviceCount ? cfg.deviceCount : 1;
    devs.resize(n);
    for (unsigned d = 0; d < n; ++d) {
        Device &dev = devs[d];
        stats::StatGroup *parent = &root;
        if (n > 1) {
            dev.grp = std::make_unique<stats::StatGroup>(
                "dev" + std::to_string(d), &root);
            parent = dev.grp.get();
        }
        dev.as = std::make_unique<mem::AddressSpace>();
        dev.memsys = std::make_unique<mem::MemSystem>(cfg.gpu.memsys,
                                                      clk, parent);
        dev.memsys->l2().setClock(&sim);
        dev.gpuModel = std::make_unique<gpu::Gpu>(cfg.gpu, *dev.memsys,
                                                  sim, parent);
        if (cfg.withScu) {
            dev.scuUnit = std::make_unique<scu::Scu>(
                cfg.scu, *dev.memsys, sim, *dev.as, parent);
        }
    }
    if (n > 1) {
        icnLink = std::make_unique<mem::Interconnect>(cfg.icn, n, sim,
                                                      &root);
    }
}

mem::AddressSpace &
System::addressSpace(DeviceId d)
{
    panic_if(d >= devs.size(), "device %u out of range", d);
    return *devs[d].as;
}

mem::MemSystem &
System::memory(DeviceId d)
{
    panic_if(d >= devs.size(), "device %u out of range", d);
    return *devs[d].memsys;
}

gpu::Gpu &
System::gpuDevice(DeviceId d)
{
    panic_if(d >= devs.size(), "device %u out of range", d);
    return *devs[d].gpuModel;
}

scu::Scu &
System::scuDevice(DeviceId d)
{
    panic_if(d >= devs.size(), "device %u out of range", d);
    panic_if(!devs[d].scuUnit, "system configured without an SCU");
    return *devs[d].scuUnit;
}

mem::Interconnect &
System::interconnect()
{
    panic_if(!icnLink, "single-device system has no interconnect");
    return *icnLink;
}

// GCC 12 false positive (GCC bug 105329): -Wrestrict inside the
// std::string memcpy inlined from the channel-prefix concatenation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
void
System::attachTrace()
{
    trace::TraceSink *sink = sim.traceSink();
    if (!sink)
        return;
    const bool multi = devs.size() > 1;
    for (std::size_t d = 0; d < devs.size(); ++d) {
        const std::string prefix =
            multi ? "d" + std::to_string(d) + "." : "";
        devs[d].gpuModel->attachTrace(*sink, prefix);
        if (devs[d].scuUnit)
            devs[d].scuUnit->attachTrace(*sink, prefix);
        devs[d].memsys->attachTrace(*sink, prefix);
    }
    if (icnLink)
        icnLink->attachTrace(*sink);
}
#pragma GCC diagnostic pop

energy::Activity
System::activitySnapshot(DeviceId d) const
{
    const Device &dev = devs[d];
    energy::Activity a;
    a.threadInstrs = static_cast<double>(
        dev.gpuModel->totals().compaction.threadInstrs +
        dev.gpuModel->totals().processing.threadInstrs);
    a.smActiveCycles = dev.gpuModel->smActiveCycles();
    a.l1Accesses = dev.gpuModel->l1Accesses();
    a.l2Accesses = dev.memsys->l2().numAccesses();
    a.dramActivates = dev.memsys->dram().numActivates();
    a.dramLines =
        dev.memsys->dram().numReads() + dev.memsys->dram().numWrites();
    if (dev.scuUnit) {
        const auto &t = dev.scuUnit->totals();
        a.scuElements = static_cast<double>(t.elements);
        a.scuTxns = static_cast<double>(
            t.readTxns + t.writeTxns + t.hashReadTxns +
            t.hashWriteTxns);
    }
    return a;
}

energy::Activity
System::activitySnapshot() const
{
    energy::Activity a;
    for (DeviceId d = 0; d < devs.size(); ++d)
        a += activitySnapshot(d);
    return a;
}

void
System::scuSection(DeviceId d, const std::function<void()> &f)
{
    energy::Activity before = activitySnapshot(d);
    f();
    scuAct += activitySnapshot(d) - before;
}

} // namespace scusim::harness
