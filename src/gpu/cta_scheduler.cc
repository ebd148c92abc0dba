#include "gpu/cta_scheduler.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

CtaPolicy
parseCtaPolicy(const std::string &name)
{
    if (name == "rr" || name == "two_level_rr")
        return CtaPolicy::TwoLevelRR;
    if (name == "bcs")
        return CtaPolicy::Bcs;
    if (name == "dcs")
        return CtaPolicy::Dcs;
    throw ConfigError(
        strfmt("unknown CTA policy '%s' (rr|bcs|dcs)", name.c_str()));
}

std::vector<std::vector<CtaId>>
assignCtas(CtaPolicy policy, std::uint32_t num_ctas,
           std::uint32_t num_sms, std::uint32_t sms_per_cluster,
           const std::vector<SmId> &sm_ids)
{
    if (num_sms == 0 || sm_ids.size() < num_sms)
        panic("assignCtas: bad SM count");
    const std::uint32_t clusters = static_cast<std::uint32_t>(
        divCeil(num_sms, sms_per_cluster));

    auto sms_in_cluster = [&](std::uint32_t c) {
        return std::min(sms_per_cluster,
                        num_sms - c * sms_per_cluster);
    };

    std::vector<std::vector<CtaId>> out(num_sms);

    for (CtaId i = 0; i < num_ctas; ++i) {
        std::uint32_t cluster = 0;
        std::uint32_t slot = 0;
        switch (policy) {
          case CtaPolicy::TwoLevelRR: {
            cluster = i % clusters;
            slot = (i / clusters) % sms_in_cluster(cluster);
            break;
          }
          case CtaPolicy::Bcs: {
            // Pairs of adjacent CTAs co-locate on one SM.
            const std::uint32_t j = i / 2;
            cluster = j % clusters;
            slot = (j / clusters) % sms_in_cluster(cluster);
            break;
          }
          case CtaPolicy::Dcs: {
            // Contiguous chunk of the CTA space per cluster.
            const std::uint32_t chunk = static_cast<std::uint32_t>(
                divCeil(num_ctas, clusters));
            cluster = std::min(i / chunk, clusters - 1);
            const std::uint32_t k = i - cluster * chunk;
            slot = k % sms_in_cluster(cluster);
            break;
          }
        }
        const std::uint32_t index = cluster * sms_per_cluster + slot;
        out[index].push_back(i);
    }
    return out;
}

} // namespace amsc
