#include "mem/address_mapping.hh"

#include "common/bitutils.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

namespace
{

/** splitmix64 finalizer: cheap, high-quality 64-bit mixing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

AddressMapping::AddressMapping(const MappingParams &params)
    : params_(params)
{
    if (!isPowerOfTwo(params_.numMcs) ||
        !isPowerOfTwo(params_.banksPerMc) ||
        !isPowerOfTwo(params_.linesPerRow) ||
        !isPowerOfTwo(params_.slicesPerMc)) {
        throw ConfigError(
            strfmt("address mapping requires power-of-two geometry "
                   "(mcs=%u banks=%u lines/row=%u slices/mc=%u)",
                   params_.numMcs, params_.banksPerMc,
                   params_.linesPerRow, params_.slicesPerMc));
    }
    colBits_ = floorLog2(params_.linesPerRow);
    mcBits_ = floorLog2(params_.numMcs);
    bankBits_ = floorLog2(params_.banksPerMc);
    sliceBits_ = floorLog2(params_.slicesPerMc);
}

DramCoord
AddressMapping::decode(Addr line_addr) const
{
    DramCoord c;
    c.col = static_cast<std::uint32_t>(
        line_addr & (params_.linesPerRow - 1));
    const Addr group = line_addr >> colBits_;

    switch (params_.scheme) {
      case MappingScheme::Pae: {
        // XOR-fold entropy from the entire row-group address into the
        // channel and bank selectors; the row id is the group itself.
        const std::uint64_t h = mix64(group);
        c.mc = static_cast<McId>(h & (params_.numMcs - 1));
        c.bank = static_cast<std::uint32_t>(
            (h >> 20) & (params_.banksPerMc - 1));
        c.row = group;
        break;
      }
      case MappingScheme::Hynix: {
        // Plain field extraction: [row | bank | mc | col].
        c.mc = static_cast<McId>(group & (params_.numMcs - 1));
        c.bank = static_cast<std::uint32_t>(
            (group >> mcBits_) & (params_.banksPerMc - 1));
        c.row = group >> (mcBits_ + bankBits_);
        break;
      }
    }
    return c;
}

std::uint32_t
AddressMapping::sliceWithinMc(Addr line_addr) const
{
    switch (params_.scheme) {
      case MappingScheme::Pae:
        // Line-granular hashed interleaving across the MC's slices;
        // a different multiplier stream than decode() decorrelates
        // slice choice from bank choice.
        return static_cast<std::uint32_t>(
            mix64(line_addr * 0x9e3779b97f4a7c15ULL + 1) &
            (params_.slicesPerMc - 1));
      case MappingScheme::Hynix:
        // Shares the bank-selector bits: slice load imbalance tracks
        // bank imbalance, as with datasheet-style mappings.
        return static_cast<std::uint32_t>(
            (line_addr >> (colBits_ + mcBits_)) &
            (params_.slicesPerMc - 1));
    }
    panic("unknown mapping scheme");
}

std::string
AddressMapping::schemeName(MappingScheme scheme)
{
    switch (scheme) {
      case MappingScheme::Pae:
        return "PAE";
      case MappingScheme::Hynix:
        return "Hynix";
    }
    return "?";
}

} // namespace amsc
