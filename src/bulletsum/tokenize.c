/* Tokenize and intern one document's texts for retrieval.TokenIndex.
 *
 * buf holds the texts lowercased and ASCII, back to back: text i is
 * buf[starts[i]] up to buf[starts[i + 1]]. A token is text.tokenize's on
 * ASCII: a digit run followed by one or more "." digit-run groups, or else a
 * maximal [a-z0-9] run. No token crosses a text boundary.
 *
 * Tokens are interned with FNV-1a into table, n_table slots (a power of two,
 * all -1) that must outnumber the distinct tokens. For each token in order,
 * local[t] is its document-local id, handed out in first-seen order, and
 * row[t] the text it came from. For each distinct token d, buf[first[d]]
 * starts its first occurrence, length[d] bytes long. The output arrays need
 * room for one token per two bytes of a text, rounded up. n_out receives the
 * number of tokens, then the number of distinct tokens.
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

void tokenize_texts(const unsigned char *buf, const ptrdiff_t *starts, ptrdiff_t n_texts,
                    ptrdiff_t *table, ptrdiff_t n_table, ptrdiff_t *local, ptrdiff_t *row,
                    ptrdiff_t *first, ptrdiff_t *length, ptrdiff_t *n_out)
{
    ptrdiff_t n = 0, distinct = 0;
    for (ptrdiff_t i = 0; i < n_texts; i++) {
        ptrdiff_t p = starts[i], end = starts[i + 1];
        while (p < end) {
            if (!is_word(buf[p])) {
                p++;
                continue;
            }
            ptrdiff_t q = token_end(buf, p, end), size = q - p, id;
            uint64_t hash = 14695981039346656037ULL;
            for (ptrdiff_t j = p; j < q; j++) {
                hash ^= buf[j];
                hash *= 1099511628211ULL;
            }
            ptrdiff_t slot = (ptrdiff_t)(hash & (uint64_t)(n_table - 1));
            while ((id = table[slot]) >= 0
                   && !(length[id] == size && memcmp(buf + first[id], buf + p, size) == 0))
                slot = (slot + 1) & (n_table - 1);
            if (id < 0) {
                id = table[slot] = distinct++;
                first[id] = p;
                length[id] = size;
            }
            local[n] = id;
            row[n] = i;
            n++;
            p = q;
        }
    }
    n_out[0] = n;
    n_out[1] = distinct;
}
