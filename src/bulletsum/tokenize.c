/* Tokenize and count the texts of one retrieval.encode call.
 *
 * buf holds the texts lowercased and ASCII, back to back: text i is
 * buf[starts[i]] up to buf[starts[i + 1]]. A token is text.tokenize's on
 * ASCII: a digit run followed by one or more "." digit-run groups, or else a
 * maximal [a-z0-9] run. No token crosses a text boundary.
 *
 * The texts form documents: document d is texts documents[d] up to
 * documents[d + 1]. Each document hands out its own ids, from 0 in
 * first-seen order. Tokens are interned with FNV-1a into table, n_table
 * slots (a power of two, all -1 before the call) that must outnumber the
 * distinct tokens of any one document. A slot holds a token's index among
 * the distinct tokens of the whole call; one below the document's first
 * such index is stale, and counts as empty.
 *
 * Text i's counts are CSR entries (retrieval.Entries): entries entry[i] up
 * to entry[i + 1] hold the ids it holds, ascending, in columns, and how
 * often it holds each, in counts. seen[i] is the number of ids text i's
 * document has handed out through text i. The k-th distinct token of the
 * call is document d's id k - bases[d], for k from bases[d] up to
 * bases[d + 1]; buf[first[k]] starts its first occurrence, length[k] bytes
 * long. columns, counts, first, length and the tally need room for one
 * token per two bytes of a text, rounded up; the bits, all clear before the
 * call and after it, need a bit for each id of the document with the most.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

static int is_digit(unsigned char c)
{
    return c >= '0' && c <= '9';
}

static int is_word(unsigned char c)
{
    return is_digit(c) || (c >= 'a' && c <= 'z');
}

/* End of the token that starts at p, a word character before end. */
static ptrdiff_t token_end(const unsigned char *buf, ptrdiff_t p, ptrdiff_t end)
{
    ptrdiff_t q = p;
    while (q < end && is_digit(buf[q]))
        q++;
    if (q > p && q + 1 < end && buf[q] == '.' && is_digit(buf[q + 1])) {
        while (q + 1 < end && buf[q] == '.' && is_digit(buf[q + 1])) {
            q += 2;
            while (q < end && is_digit(buf[q]))
                q++;
        }
        return q;
    }
    while (q < end && is_word(buf[q]))
        q++;
    return q;
}

/* Write a text's ids, each marked in bits, from lo up to hi, to ids in
 * ascending order, and clear their marks. The walk reads at most one word
 * of marks per 64 ids of the document. */
static void ascending(ptrdiff_t *ids, ptrdiff_t lo, ptrdiff_t hi, uint64_t *bits)
{
    for (ptrdiff_t w = lo >> 6; w <= hi >> 6; w++) {
        for (uint64_t word = bits[w]; word; word &= word - 1)
            *ids++ = w * 64 + __builtin_ctzll(word);
        bits[w] = 0;
    }
}

void tokenize_texts(const unsigned char *buf, const ptrdiff_t *starts,
                    const ptrdiff_t *documents, ptrdiff_t n_documents,
                    ptrdiff_t *table, ptrdiff_t n_table, ptrdiff_t *entry,
                    ptrdiff_t *columns, double *counts, ptrdiff_t *seen, ptrdiff_t *bases,
                    ptrdiff_t *first, ptrdiff_t *length, ptrdiff_t *tally, uint64_t *bits)
{
    ptrdiff_t e = 0, distinct = 0;
    entry[0] = 0;
    for (ptrdiff_t d = 0; d < n_documents; d++) {
        ptrdiff_t base = bases[d] = distinct;
        for (ptrdiff_t i = documents[d]; i < documents[d + 1]; i++) {
            ptrdiff_t p = starts[i], end = starts[i + 1], run = e, lo = PTRDIFF_MAX, hi = -1;
            while (p < end) {
                if (!is_word(buf[p])) {
                    p++;
                    continue;
                }
                ptrdiff_t q = token_end(buf, p, end), size = q - p, k;
                uint64_t hash = 14695981039346656037ULL;
                for (ptrdiff_t j = p; j < q; j++) {
                    hash ^= buf[j];
                    hash *= 1099511628211ULL;
                }
                ptrdiff_t slot = (ptrdiff_t)(hash & (uint64_t)(n_table - 1));
                while ((k = table[slot]) >= base
                       && !(length[k] == size && memcmp(buf + first[k], buf + p, size) == 0))
                    slot = (slot + 1) & (n_table - 1);
                if (k < base) {
                    k = table[slot] = distinct++;
                    first[k] = p;
                    length[k] = size;
                    tally[k] = 0;
                }
                if (tally[k]++ == 0) {
                    ptrdiff_t id = k - base;
                    bits[id >> 6] |= 1ULL << (id & 63);
                    lo = id < lo ? id : lo;
                    hi = id > hi ? id : hi;
                    e++;
                }
                p = q;
            }
            ascending(columns + run, lo, hi, bits);
            for (ptrdiff_t j = run; j < e; j++) {
                counts[j] = (double)tally[base + columns[j]];
                tally[base + columns[j]] = 0;
            }
            entry[i + 1] = e;
            seen[i] = distinct - base;
        }
    }
    bases[n_documents] = distinct;
}
