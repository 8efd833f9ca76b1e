#include "device.h"

namespace ncore {

namespace {

/** A driver for `machine`, powered up and past the ROM self-test (the
 *  runtime may claim the device only after both). */
NcoreDriver
poweredUpDriver(Machine &machine)
{
    NcoreDriver driver(machine);
    driver.powerUp();
    fatal_if(!driver.selfTest(), "Ncore self-test failed");
    return driver;
}

} // namespace

NcoreDevice::NcoreDevice(SharedModel model, SystemMemory *sysmem,
                         const Machine::Options &opts)
    : machine(chaNcoreConfig(), chaSocConfig(), sysmem, false, opts),
      driver(poweredUpDriver(machine)), runtime(driver),
      exec(runtime, X86CostModel{})
{
    runtime.loadModel(std::move(model));
}

} // namespace ncore
