/**
 * @file
 * Open-loop LLM-inference serving workload (request-driver program).
 *
 * Models multi-tenant inference serving under a Poisson request
 * stream (docs/workloads.md, "The llm_inference request driver").
 * Requests arrive open-loop (arrival times never depend on service
 * progress) over a Zipf-distributed tenant population; the driver
 * queues them, batches consecutive same-tenant requests, and launches
 * a three-phase chain per batch:
 *
 *  - prefill:   compute-dense, high-reuse GEMM-like pass over the
 *               tenant's weight matrices (TiledShared);
 *  - decode:    bandwidth-bound token generation streaming the
 *               batch's KV cache with skewed weight reuse
 *               (ZipfShared + private KV streams);
 *  - kv-append: write-heavy streaming append of the newly generated
 *               KV entries (PrivateStream, store-dominated).
 *
 * Footprints derive from the model dimensions (d_model, layers,
 * context length) at 2 bytes/element: weights = 12 * layers *
 * d_model^2 bytes per tenant, KV = 2 * layers * d_model bytes per
 * token per request. Everything is deterministic per seed via the
 * repo's splitmix64/xoshiro idiom: the same seed gives byte-identical
 * RunResults at any thread count and under either cycle-core driver,
 * and the full driver state (queue, RNG, in-flight batch) is
 * checkpointable (docs/workloads.md).
 */

#ifndef AMSC_WORKLOADS_LLM_INFERENCE_HH
#define AMSC_WORKLOADS_LLM_INFERENCE_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "workloads/program.hh"

namespace amsc
{

struct SimConfig;

/** Parameters of the llm_inference workload class. */
struct LlmServingParams
{
    /** Mean request arrivals per 1000 cycles (Poisson process). */
    double ratePerKCycle = 2.0;
    /** Tenant (model instance) population. */
    std::uint32_t tenants = 4;
    /** Zipf skew of tenant popularity (0 = uniform). */
    double zipfAlpha = 0.8;
    /** Maximum requests batched into one phase chain. */
    std::uint32_t maxBatch = 4;
    /** Requests admitted before the driver finishes (0 = open). */
    std::uint32_t totalRequests = 32;
    /** Prompt (context) length in tokens. */
    std::uint32_t ctxTokens = 256;
    /** Generated tokens per request. */
    std::uint32_t decodeTokens = 16;
    /** Model hidden dimension. */
    std::uint32_t dModel = 1024;
    /** Transformer layer count. */
    std::uint32_t layers = 8;
    /** Cache line size (address arithmetic). */
    std::uint32_t lineBytes = 128;
    /** Base address of the app's memory image (suite idiom: app<<36). */
    Addr baseAddr = 0;
    /** Master seed of the arrival/tenant stream. */
    std::uint64_t seed = 42;
};

/** Build the llm_inference parameters of @p app from @p cfg. */
LlmServingParams llmServingParamsFromConfig(const SimConfig &cfg,
                                            AppId app);

/** Create an open-loop llm_inference request-driver program. */
std::unique_ptr<WorkloadProgram>
makeLlmInferenceProgram(const LlmServingParams &params);

} // namespace amsc

#endif // AMSC_WORKLOADS_LLM_INFERENCE_HH
