/* Centroid x counted-text products at the (topic, text) pairs route ranks.
 *
 * queries is a row-major matrix of width columns, one row per topic
 * centroid. A fold's entries are CSR rows (retrieval.Entries), one per
 * counted text: entry e, for e from starts[t] up to starts[t + 1], is text
 * t's weight weights[e] on column at[e]. For each pair p, out[p] sums
 * queries[topics[p]][at[e]] times weights[e] over text texts[p]'s entries,
 * in entry order from 0.0: the order of retrieval._python_products'
 * bincount, so the bits are its. Build with -ffp-contract=off: a fused
 * multiply-add rounds differently. Every index must be in range.
 */
#include <stddef.h>

void pair_products(const double *queries, ptrdiff_t width, const ptrdiff_t *at,
                   const double *weights, const ptrdiff_t *starts,
                   const ptrdiff_t *topics, const ptrdiff_t *texts,
                   ptrdiff_t n_pairs, double *out)
{
    for (ptrdiff_t p = 0; p < n_pairs; p++) {
        const double *query = queries + topics[p] * width;
        ptrdiff_t end = starts[texts[p] + 1];
        double sum = 0.0;
        for (ptrdiff_t e = starts[texts[p]]; e < end; e++)
            sum += query[at[e]] * weights[e];
        out[p] = sum;
    }
}
