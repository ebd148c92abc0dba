#include "llc/slice_mapper.hh"

#include "common/log.hh"

namespace amsc
{

SliceMapper::SliceMapper(const AddressMapping &mapping,
                         std::uint32_t num_apps)
    : mapping_(mapping)
{
    if (num_apps == 0)
        panic("SliceMapper requires at least one application");
    modes_.assign(num_apps, LlcMode::Shared);
}

void
SliceMapper::setMode(AppId app, LlcMode mode)
{
    if (app >= modes_.size())
        panic("SliceMapper: app %u out of range", app);
    modes_[app] = mode;
}

} // namespace amsc
