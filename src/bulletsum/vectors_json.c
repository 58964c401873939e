/* Decode one embed response body into a matrix for services.EmbeddingClient.
 *
 * Only the canonical form is decoded: strict JSON, one object whose single
 * key is "vectors" (written without escapes), whose value is a non-empty
 * array of rows of equal, non-zero length, each row an array of JSON numbers.
 * JSON whitespace (space, tab, newline, carriage return) may stand between
 * any two tokens.
 *
 * buf holds n bytes. The numbers go to out in row order, at most capacity of
 * them, each as np.array(json.loads(buf), dtype=np.float64) holds it. An
 * integer literal of at most 15 digits is exact in a double, and -0 gives
 * +0.0, as the Python int 0 does. Any other literal goes through strtod in
 * the "C" locale, which rounds correctly, as Python's int and float do.
 * shape receives the row count and the width, or 0 and 0 when the body is
 * not canonical, a number overflows to an infinity, or out is full. The
 * caller then decodes the body with json.loads, which also gives the error.
 */
#define _POSIX_C_SOURCE 200809L
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static const char *skip_space(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
        p++;
    return p;
}

/* Skip whitespace, then consume c if it comes next. */
static int take(const char **p, const char *end, char c)
{
    *p = skip_space(*p, end);
    if (*p < end && **p == c) {
        (*p)++;
        return 1;
    }
    return 0;
}

static const char *skip_digits(const char *p, const char *end)
{
    while (p < end && is_digit(*p))
        p++;
    return p;
}

/* Parse the JSON number at p into *value. Returns its end, or NULL if there
 * is no number, it overflows, or nothing follows it before end. */
static const char *number(const char *p, const char *end, double *value)
{
    const char *start = p;
    int negative = p < end && *p == '-';
    p += negative;
    const char *digits = p;
    unsigned long long v = 0;
    while (p < end && is_digit(*p))
        v = 10 * v + (unsigned)(*p++ - '0');
    ptrdiff_t n_digits = p - digits;
    if (n_digits == 0 || (n_digits > 1 && *digits == '0'))
        return NULL;
    int integer = 1;
    if (p < end && *p == '.') {
        if (!(p + 1 < end && is_digit(p[1])))
            return NULL;
        p = skip_digits(p + 1, end);
        integer = 0;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (!(p < end && is_digit(*p)))
            return NULL;
        p = skip_digits(p, end);
        integer = 0;
    }
    /* A body that ends here is truncated; the check also keeps strtod in buf. */
    if (p == end)
        return NULL;
    if (integer && n_digits <= 15) {
        /* exact, and -0 is the int 0 */
        *value = (double)(negative ? -(long long)v : (long long)v);
        return p;
    }
    char *stop;
    *value = strtod(start, &stop);
    return stop == p && !isinf(*value) ? p : NULL;
}

static void parse(const char *p, const char *end, double *out, ptrdiff_t capacity,
                  ptrdiff_t *shape)
{
    static const char key[] = "\"vectors\"";
    ptrdiff_t count = 0, rows = 0, width = 0;
    if (!take(&p, end, '{'))
        return;
    p = skip_space(p, end);
    if (end - p < (ptrdiff_t)sizeof key - 1 || memcmp(p, key, sizeof key - 1) != 0)
        return;
    p += sizeof key - 1;
    if (!take(&p, end, ':') || !take(&p, end, '['))
        return;
    do {
        ptrdiff_t row_start = count;
        if (!take(&p, end, '['))
            return;
        do {
            if (count == capacity)
                return;
            p = number(skip_space(p, end), end, out + count);
            if (p == NULL)
                return;
            count++;
        } while (take(&p, end, ','));
        if (!take(&p, end, ']'))
            return;
        if (rows > 0 && count - row_start != width)
            return;
        width = count - row_start;
        rows++;
    } while (take(&p, end, ','));
    if (!take(&p, end, ']') || !take(&p, end, '}') || skip_space(p, end) != end)
        return;
    shape[0] = rows;
    shape[1] = width;
}

void decode_vectors(const char *buf, ptrdiff_t n, double *out, ptrdiff_t capacity,
                    ptrdiff_t *shape)
{
    shape[0] = shape[1] = 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return;
    locale_t previous = uselocale(c_locale);
    parse(buf, buf + n, out, capacity, shape);
    uselocale(previous);
    freelocale(c_locale);
}
