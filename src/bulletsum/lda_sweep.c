/* Collapsed Gibbs sweeps for topics.fit_lda, drawing the same chain.
 *
 * The float expression, its summation order and the inverse-CDF scan are
 * those of the Python loop, and the uniforms continue Python's MT19937
 * stream: mt holds random.Random.getstate()[1], 624 state words and the
 * index, and is left as Python's state would be after the same draws.
 * Build with -ffp-contract=off: a fused multiply-add changes phi.
 */
#include <stddef.h>
#include <stdint.h>

enum { N = 624, M = 397 };

static uint32_t genrand_uint32(uint32_t *mt)
{
    uint32_t y;
    if (mt[N] >= N) {
        int kk;
        for (kk = 0; kk < N; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[(kk + 1) % N] & 0x7fffffffU);
            mt[kk] = mt[(kk + M) % N] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        mt[N] = 0;
    }
    y = mt[mt[N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* random.random(): 53 bits from two words. */
static double genrand_res53(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

void lda_sweeps(int n_tokens, const int *doc_of, const int *word_of, int *z,
                int *n_dk, int *n_wk, int *n_k, int K, double alpha,
                double beta, double beta_v, double *cum, int iters,
                uint32_t *mt)
{
    for (int it = 0; it < iters; it++) {
        for (int i = 0; i < n_tokens; i++) {
            int *ndk = n_dk + (size_t)doc_of[i] * K;
            int *nwk = n_wk + (size_t)word_of[i] * K;
            int k = z[i];
            ndk[k]--;
            nwk[k]--;
            n_k[k]--;

            double total = 0.0;
            for (int j = 0; j < K; j++) {
                total += ((double)nwk[j] + beta) * ((double)ndk[j] + alpha)
                         / ((double)n_k[j] + beta_v);
                cum[j] = total;
            }
            double u = genrand_res53(mt) * total;
            /* u < cum[K - 1] for any positive total; the bound guards memory. */
            k = 0;
            while (k < K - 1 && cum[k] < u)
                k++;

            z[i] = k;
            ndk[k]++;
            nwk[k]++;
            n_k[k]++;
        }
    }
}
