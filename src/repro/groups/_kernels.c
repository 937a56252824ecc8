/* GMP kernels for the hot loops of the pairing group.
 *
 * Built on first use by repro.groups.native (a plain compiler run
 * against the interpreter's headers and -lgmp).  Each entry point runs
 * a whole loop, never a single field operation:
 *
 *   affine_multiexp  the lockstep affine multiexp of
 *                    repro.groups.fastops._batch_affine_multiexp:
 *                    signed tables, column trees and Horner, every
 *                    round sharing one inversion (Montgomery's trick);
 *   scalar_mul_vector
 *                    the same rounds for curve.batch_scalar_mul (the
 *                    cofactor clearing of batched sampling);
 *   sample_points    sampling.random_subgroup_points: candidate points
 *                    drawn from a random.Random's pre-drawn output
 *                    words exactly as its randrange and getrandbits
 *                    would consume them, rooted by an exponentiation
 *                    and cleared by the cofactor on the same rounds;
 *   miller_schedule  repro.groups.pairing.miller_schedule: the line
 *                    coefficients of a point's Miller loop, walked in
 *                    Jacobian coordinates and normalised with two
 *                    batched inversions;
 *   schedule_chunk   repro.groups.pairing.evaluate_schedule_chunk: a
 *                    cached Miller schedule evaluated at many points,
 *                    batched y_Q and norm inversions and the final
 *                    exponentiation included;
 *   straus_fq2       one F_{q^2} Straus multiexp of
 *                    repro.groups.fastops._straus_fq2_shared.
 *
 * The Python kernels are the reference: every value returned here is
 * the canonical residue those kernels return.  Operands are converted
 * once per call; the arithmetic then runs on scratch pools reused
 * across calls, releasing the interpreter lock when the call is long
 * enough for that to pay (see BEGIN_COMPUTE below).
 *
 * Residues mod q come in two representations, picked per call from the
 * modulus.  Below 2^63 a residue is one uint64_t, products are
 * unsigned __int128 reduced with % q, and a sum of two residues cannot
 * overflow; any larger q keeps its residues in mpz_t.  The kernels are
 * written once, in _kernels_body.h, against a small field layer (set,
 * neg, mul, two-product sums, inversion, comparisons, powm, the
 * conversions to and from ints, and lazy products, sums and
 * differences that only the mpz_t field leaves unreduced), and that
 * body is included here once per representation.  Exponents, scalars and the
 * cofactor stay arbitrary-size mpz_t on both paths.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <gmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Scratch: pools that only ever grow, reused across calls.  There is  */
/* one, lent to one call at a time.  A kernel that computes without    */
/* the interpreter lock lets another thread call a kernel meanwhile,   */
/* and Python code run by a kernel's own allocations (a finalizer the  */
/* garbage collector starts) may pass the lock to another thread that  */
/* calls one; that second call waits for the scratch instead of        */
/* sharing it.  A kernel re-entered on its own thread, by a finalizer  */
/* that calls a kernel, is not supported: it would wait for itself.    */
/* Besides what is here, each residue representation keeps its own     */
/* residue and point pools (_kernels_body.h), under the same lock.     */

typedef struct {
    mpz_t *z;  /* the modulus, exponents, scalars, the cofactor */
    size_t nz;
    unsigned char *bytes;  /* int <-> residue conversions */
    size_t nbytes;
    unsigned char *mem[2];  /* carved into a multiexp's plan arrays */
    size_t nmem[2];
} scratch;

static scratch pool;
static PyThread_type_lock pool_lock;

/* Each kernel NAME_on(s, args) runs on the scratch lent by NAME.  A
 * caller waits for the scratch without the interpreter lock, which the
 * scratch's holder needs to finish. */
#define LEND_SCRATCH(name)                                          \
    static PyObject *name(PyObject *self, PyObject *args)           \
    {                                                               \
        if (!PyThread_acquire_lock(pool_lock, NOWAIT_LOCK)) {       \
            Py_BEGIN_ALLOW_THREADS                                  \
            PyThread_acquire_lock(pool_lock, WAIT_LOCK);            \
            Py_END_ALLOW_THREADS                                    \
        }                                                           \
        PyObject *result = name##_on(&pool, args);                  \
        PyThread_release_lock(pool_lock);                           \
        return result;                                              \
    }

/* Grow the pool to exactly n entries (memory stays at the largest call
 * seen); earlier pointers into it are invalid afterwards, so only the
 * entry points reserve it, before they take any. */
static int reserve_z(scratch *s, size_t n)
{
    if (n <= s->nz)
        return 0;
    mpz_t *z = realloc(s->z, n * sizeof *z);
    if (z == NULL)
        return -1;
    for (size_t i = s->nz; i < n; i++)
        mpz_init(z[i]);
    s->z = z;
    s->nz = n;
    return 0;
}

static int reserve_bytes(scratch *s, size_t n)
{
    if (n <= s->nbytes)
        return 0;
    unsigned char *b = realloc(s->bytes, n);
    if (b == NULL)
        return -1;
    s->bytes = b;
    s->nbytes = n;
    return 0;
}

enum { OK = 0, SINGULAR = 1, NO_MEMORY = 2, RAN_OUT = 4 };

/* ------------------------------------------------------------------ */
/* int <-> mpz_t                                                       */

/* A non-negative int as little-endian bytes in s->bytes, *len of them
 * (a negative one raises OverflowError). */
static int load_bytes(PyObject *obj, scratch *s, size_t *len)
{
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "kernel operands must be int");
        return -1;
    }
    size_t bits = _PyLong_NumBits(obj);
    if (bits == (size_t)-1 && PyErr_Occurred())
        return -1;
    *len = (bits + 7) / 8;
    if (reserve_bytes(s, *len ? *len : 1) < 0) {
        PyErr_NoMemory();
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000
    if (PyLong_AsNativeBytes(obj, s->bytes, (Py_ssize_t)*len,
                             Py_ASNATIVEBYTES_LITTLE_ENDIAN
                                 | Py_ASNATIVEBYTES_UNSIGNED_BUFFER
                                 | Py_ASNATIVEBYTES_REJECT_NEGATIVE) < 0)
        return -1;
#else
    if (_PyLong_AsByteArray((PyLongObject *)obj, s->bytes, *len, 1, 0) < 0)
        return -1;
#endif
    return 0;
}

/* A non-negative int as an mpz_t. */
static int load_mpz(mpz_t out, PyObject *obj, scratch *s)
{
    size_t len;
    if (load_bytes(obj, s, &len) < 0)
        return -1;
    mpz_import(out, len, -1, 1, 0, 0, s->bytes);
    return 0;
}

/* A non-negative mpz_t as an int. */
static PyObject *store_mpz(mpz_srcptr z, scratch *s)
{
    size_t len = (mpz_sizeinbase(z, 2) + 7) / 8;
    if (reserve_bytes(s, len) < 0)
        return PyErr_NoMemory();
    size_t count = 0;
    mpz_export(s->bytes, &count, -1, 1, 0, 0, z);
    return _PyLong_FromByteArray(s->bytes, count, 1, 0);
}

static int load_modulus(mpz_t q, PyObject *obj, scratch *s)
{
    if (load_mpz(q, obj, s) < 0)
        return -1;
    if (mpz_cmp_ui(q, 2) < 0) {
        PyErr_SetString(PyExc_ValueError, "the modulus must be at least 2");
        return -1;
    }
    return 0;
}

/* The word representation serves every q < 2^63. */
static int word_sized(mpz_srcptr q)
{
    return mpz_sizeinbase(q, 2) <= 63;
}

/* A field's own residues: the first FIELD_SLOTS of its pool, which
 * F(open) sets up. */
#define FIELD_SLOTS 3

/* ------------------------------------------------------------------ */
/* The word field: residues of q < 2^63 as uint64_t in [0, q).         */

typedef uint64_t W_fe;

typedef struct {
    uint64_t q, one;
} W_field;

static void W_init(W_fe *a)
{
    *a = 0;
}

static void W_open(W_field *f, W_fe *slots, mpz_srcptr q)
{
    (void)slots;
    f->q = mpz_get_ui(q);
    f->one = 1;
}

static const W_fe *W_one(const W_field *f)
{
    return &f->one;
}

static inline uint64_t W_mod(const W_field *f, unsigned __int128 x)
{
    return (uint64_t)(x % f->q);
}

static inline void W_set(const W_field *f, W_fe *o, const W_fe *a)
{
    (void)f;
    *o = *a;
}

static inline void W_set_zero(const W_field *f, W_fe *o)
{
    (void)f;
    *o = 0;
}

static inline void W_neg(const W_field *f, W_fe *o, const W_fe *a)
{
    *o = *a ? f->q - *a : 0;
}

static inline void W_mul(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b)
{
    *o = W_mod(f, (unsigned __int128)*a * *b);
}

/* a b + c d, one reduction: the sum stays below 2 q^2 < 2^127. */
static inline void W_dot(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b,
                         const W_fe *c, const W_fe *d)
{
    *o = W_mod(f, (unsigned __int128)*a * *b + (unsigned __int128)*c * *d);
}

/* a b - c d as a b + (q - c) d. */
static inline void W_cross(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b,
                           const W_fe *c, const W_fe *d)
{
    *o = W_mod(f, (unsigned __int128)*a * *b
                         + (unsigned __int128)(f->q - *c) * *d);
}

/* The lazy operations: a word value is always reduced. */
static inline void W_lmul(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b)
{
    W_mul(f, o, a, b);
}

static inline void W_ladd(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b)
{
    uint64_t sum = *a + *b;  /* below 2^64: q < 2^63 */
    *o = sum >= f->q ? sum - f->q : sum;
}

static inline void W_lsub(const W_field *f, W_fe *o, const W_fe *a, const W_fe *b)
{
    uint64_t diff = *a - *b;
    *o = *a < *b ? diff + f->q : diff;
}

static inline void W_reduce(const W_field *f, W_fe *o, const W_fe *a)
{
    (void)f;
    *o = *a;
}

/* 1 / a by the extended Euclidean algorithm; 0 if a is not a unit. */
static int W_inv(const W_field *f, W_fe *o, const W_fe *a)
{
    int64_t t = 0, next_t = 1;
    uint64_t r = f->q, next_r = *a;
    while (next_r != 0) {
        uint64_t quotient = r / next_r, rest = r - quotient * next_r;
        int64_t step = t - (int64_t)quotient * next_t;
        r = next_r;
        next_r = rest;
        t = next_t;
        next_t = step;
    }
    if (r != 1)
        return 0;
    *o = t < 0 ? (uint64_t)t + f->q : (uint64_t)t;
    return 1;
}

static inline int W_eq(const W_fe *a, const W_fe *b)
{
    return *a == *b;
}

static inline int W_is_zero(const W_fe *a)
{
    return *a == 0;
}

static void W_powm(const W_field *f, W_fe *o, const W_fe *a, mpz_srcptr e)
{
    uint64_t base = *a, r = f->one;
    for (size_t bit = mpz_sizeinbase(e, 2); bit-- > 0;) {
        W_mul(f, &r, &r, &r);
        if (mpz_tstbit(e, bit))
            W_mul(f, &r, &r, &base);
    }
    *o = r;
}

/* An abscissa from nw <= 2 little-endian 32-bit digits; 0 if >= q. */
static int W_from_digits(const W_field *f, W_fe *o, const uint32_t *digits, size_t nw)
{
    uint64_t x = digits[0] | (nw > 1 ? (uint64_t)digits[1] << 32 : 0);
    if (x >= f->q)
        return 0;
    *o = x;
    return 1;
}

/* A non-negative int mod q: directly up to 64 bits, else folded in
 * from its top 64-bit chunk down, (r 2^64 + chunk) < 2^127 each. */
static int W_load(const W_field *f, scratch *s, W_fe *o, PyObject *obj)
{
    if (PyLong_Check(obj) && _PyLong_NumBits(obj) <= 64) {
        unsigned long long v = PyLong_AsUnsignedLongLong(obj);
        if (v == (unsigned long long)-1 && PyErr_Occurred())
            return -1;
        *o = (uint64_t)v % f->q;
        return 0;
    }
    size_t len;
    if (load_bytes(obj, s, &len) < 0)
        return -1;
    uint64_t r = 0;
    for (size_t chunk = (len + 7) / 8; chunk-- > 0;) {
        uint64_t word = 0;
        for (size_t i = 8 * chunk + 8; i-- > 8 * chunk;)
            word = word << 8 | (i < len ? s->bytes[i] : 0);
        r = W_mod(f, (unsigned __int128)r << 64 | word);
    }
    *o = r;
    return 0;
}

static PyObject *W_store(const W_field *f, scratch *s, const W_fe *a)
{
    (void)f;
    (void)s;
    return PyLong_FromUnsignedLongLong(*a);
}

/* ------------------------------------------------------------------ */
/* The mpz_t field: residues of any q as mpz_t in [0, q).              */

typedef __mpz_struct Z_fe;

typedef struct {
    mpz_srcptr q;
    mpz_ptr t, u, one;  /* the field slots */
} Z_field;

static void Z_init(Z_fe *a)
{
    mpz_init(a);
}

static void Z_open(Z_field *f, Z_fe *slots, mpz_srcptr q)
{
    f->q = q;
    f->t = &slots[0];
    f->u = &slots[1];
    f->one = &slots[2];
    mpz_set_ui(f->one, 1);
}

static const Z_fe *Z_one(const Z_field *f)
{
    return f->one;
}

static inline void Z_set(const Z_field *f, Z_fe *o, const Z_fe *a)
{
    (void)f;
    mpz_set(o, a);
}

static inline void Z_set_zero(const Z_field *f, Z_fe *o)
{
    (void)f;
    mpz_set_ui(o, 0);
}

static inline void Z_neg(const Z_field *f, Z_fe *o, const Z_fe *a)
{
    if (mpz_sgn(a) == 0)
        mpz_set_ui(o, 0);
    else
        mpz_sub(o, f->q, a);
}

static inline void Z_mul(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b)
{
    mpz_mul(f->t, a, b);
    mpz_mod(o, f->t, f->q);
}

static inline void Z_dot(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b,
                         const Z_fe *c, const Z_fe *d)
{
    mpz_mul(f->t, a, b);
    mpz_mul(f->u, c, d);  /* faster than mpz_addmul at a few limbs */
    mpz_add(f->t, f->t, f->u);
    mpz_mod(o, f->t, f->q);
}

static inline void Z_cross(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b,
                           const Z_fe *c, const Z_fe *d)
{
    mpz_mul(f->t, a, b);
    mpz_mul(f->u, c, d);
    mpz_sub(f->t, f->t, f->u);
    mpz_mod(o, f->t, f->q);
}

/* The lazy operations leave their result unreduced (possibly negative
 * or above q) until Z_reduce: the deferred mpz_mod calls are what an
 * mpz_t residue costs most. */
static inline void Z_lmul(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b)
{
    (void)f;
    mpz_mul(o, a, b);
}

static inline void Z_ladd(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b)
{
    (void)f;
    mpz_add(o, a, b);
}

static inline void Z_lsub(const Z_field *f, Z_fe *o, const Z_fe *a, const Z_fe *b)
{
    (void)f;
    mpz_sub(o, a, b);
}

static inline void Z_reduce(const Z_field *f, Z_fe *o, const Z_fe *a)
{
    mpz_mod(o, a, f->q);
}

static int Z_inv(const Z_field *f, Z_fe *o, const Z_fe *a)
{
    return mpz_invert(o, a, f->q) != 0;
}

static inline int Z_eq(const Z_fe *a, const Z_fe *b)
{
    return mpz_cmp(a, b) == 0;
}

static inline int Z_is_zero(const Z_fe *a)
{
    return mpz_sgn(a) == 0;
}

static void Z_powm(const Z_field *f, Z_fe *o, const Z_fe *a, mpz_srcptr e)
{
    mpz_powm(o, a, e, f->q);
}

static int Z_from_digits(const Z_field *f, Z_fe *o, const uint32_t *digits, size_t nw)
{
    mpz_import(o, nw, -1, sizeof *digits, 0, 0, digits);
    return mpz_cmp(o, f->q) < 0;
}

static int Z_load(const Z_field *f, scratch *s, Z_fe *o, PyObject *obj)
{
    if (load_mpz(o, obj, s) < 0)
        return -1;
    mpz_mod(o, o, f->q);
    return 0;
}

static PyObject *Z_store(const Z_field *f, scratch *s, const Z_fe *a)
{
    (void)f;
    return store_mpz(a, s);
}

/* ------------------------------------------------------------------ */
/* The digit layout of a lockstep multiexp: which table entry each     */
/* term contributes at each bit position (residue-free, so shared).    */

typedef struct {
    /* The digit layout (fastops._digit_layout), per term and entry. */
    size_t terms, width, bits, w, positions, slots;
    size_t *owner;          /* per term: its instance */
    size_t *multiples;      /* per term: odd multiples in its table */
    size_t *table;          /* per term: its first table slot */
    size_t *entry_start;    /* per term, plus an end: its first entry */
    size_t *entry_position, *entry_column, *entry_index;
    size_t *depth;          /* per bit position: columns there */
    size_t *filled;         /* per bit position, for one instance */
    size_t *order;          /* the occupied positions, top first */
    size_t *col_offset;     /* per position: its first column slot */
    /* The sizes of the rounds' arrays. */
    size_t npos, ncols, column_slots, slice_slots, widest;
} layout;

/* The plan arrays are carved from the scratch's byte buffers, so a
 * call allocates nothing once its pool has served a call as large. */
typedef struct {
    unsigned char *base;
    size_t cap, used;
} carver;

static void *carve(carver *c, size_t count, size_t size)
{
    size_t at = (c->used + 15) & ~(size_t)15;
    c->used = at + count * size;
    return c->used <= c->cap ? c->base + at : NULL;
}

#define CARVE(m, field, count) ((m)->field = carve(c, (count), sizeof *(m)->field))

static void carve_layout(void *arg, carver *c)
{
    layout *m = arg;
    size_t per_term = m->bits / m->w + 2;  /* bounds a term's digits */
    CARVE(m, owner, m->terms);
    CARVE(m, multiples, m->terms);
    CARVE(m, table, m->terms);
    CARVE(m, entry_start, m->terms + 1);
    CARVE(m, entry_position, m->terms * per_term);
    CARVE(m, entry_column, m->terms * per_term);
    CARVE(m, entry_index, m->terms * per_term);
    CARVE(m, depth, m->positions);
    CARVE(m, filled, m->positions);
    CARVE(m, order, m->positions);
    CARVE(m, col_offset, m->positions);
}

/* Run fill over scratch buffer k, growing the buffer once if needed. */
static int carve_all(scratch *s, int k, void *m, void (*fill)(void *, carver *))
{
    carver c = {s->mem[k], s->nmem[k], 0};
    fill(m, &c);
    if (c.used <= c.cap)
        return OK;
    unsigned char *grown = realloc(s->mem[k], c.used);
    if (grown == NULL)
        return NO_MEMORY;
    s->mem[k] = grown;
    s->nmem[k] = c.used;
    c = (carver){grown, c.used, 0};
    fill(m, &c);
    return OK;
}

/* Signed width-w NAF digits of every exponent (consumed), and where
 * each lands: its bit position, its column (the earlier terms of its
 * instance with a digit there) and its index into the term's table
 * P, -P, 3P, -3P, ...; mirrors fastops.wnaf_digits/_digit_layout. */
static void plan_layout(layout *m, mpz_t *exps, mpz_t work)
{
    unsigned long w = m->w, full = 1UL << w, half = full >> 1;
    size_t n = 0, slot = 0;
    memset(m->depth, 0, m->positions * sizeof *m->depth);
    for (size_t t = 0; t < m->terms; t++) {
        if (t == 0 || m->owner[t] != m->owner[t - 1])
            memset(m->filled, 0, m->positions * sizeof *m->filled);
        m->entry_start[t] = n;
        unsigned long largest = 1;
        size_t position = 0;
        mpz_ptr e = exps[t];
        while (mpz_sgn(e) != 0) {
            mp_bitcnt_t zeros = mpz_scan1(e, 0);
            mpz_fdiv_q_2exp(e, e, zeros);
            position += zeros;
            unsigned long low = mpz_getlimbn(e, 0) & (full - 1);
            int negative = low >= half;
            unsigned long magnitude = negative ? full - low : low;
            if (magnitude > largest)
                largest = magnitude;
            size_t column = m->filled[position]++;
            if (column + 1 > m->depth[position])
                m->depth[position] = column + 1;
            m->entry_position[n] = position;
            m->entry_column[n] = column;
            m->entry_index[n] = magnitude - 1 + (size_t)negative;
            n++;
            /* exponent - digit is divisible by 2^w */
            if (negative)
                mpz_add_ui(work, e, magnitude);
            else
                mpz_sub_ui(work, e, magnitude);
            mpz_fdiv_q_2exp(e, work, w);
            position += w;
        }
        m->multiples[t] = (largest + 1) / 2;
        m->table[t] = slot;
        slot += 2 * m->multiples[t];
    }
    m->entry_start[m->terms] = n;
    m->slots = slot;
}

/* Where each position's columns start, top first.  Positions are
 * summed in slices of at least tree_entries column slots
 * (fastops._TREE_ENTRIES); the widest slice sizes the tree storage. */
static void plan_columns(layout *m, size_t tree_entries)
{
    m->column_slots = m->npos = m->ncols = m->slice_slots = 0;
    size_t slice = 0;
    for (size_t pos = m->positions; pos-- > 0;) {
        if (m->depth[pos] == 0)
            continue;
        m->col_offset[pos] = m->column_slots;
        m->order[m->npos++] = pos;
        if (slice >= tree_entries)
            slice = 0;
        slice += m->depth[pos] * m->width;
        m->ncols += m->depth[pos];
        m->column_slots += m->depth[pos] * m->width;
        if (slice > m->slice_slots)
            m->slice_slots = slice;
    }
    m->widest = m->terms;
    if (m->slice_slots > m->widest)
        m->widest = m->slice_slots;
    if (m->width > m->widest)
        m->widest = m->width;
}

/* ------------------------------------------------------------------ */
/* Pre-drawn MT19937 output words for sample_points.                   */

typedef struct {
    const unsigned char *bytes;
    size_t n, used;
} word_stream;

static uint32_t next_word(word_stream *ws)
{
    const unsigned char *b = ws->bytes + 4 * ws->used++;
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
           | (uint32_t)b[3] << 24;
}

/* ------------------------------------------------------------------ */
/* The kernels, once per representation.                              */

/* BEGIN_COMPUTE(work)/END_COMPUTE bracket each kernel's arithmetic,
 * work being the call's estimated count of field multiplications.  The
 * call releases the interpreter lock while it computes when work
 * reaches the field's RELEASE_WORK.  Handing the lock to a thread that
 * waits for it and taking it back costs tens of microseconds, so a
 * word call keeps the lock below 12288 multiplications (about 0.2 ms
 * at q < 2^63): most word calls are shorter.  The longer ones release
 * it, which bounds how long a call of any batch size holds the lock
 * and lets a thread that waits for it (a server's loop thread reading
 * the next request) in during a period.  An mpz_t call always releases
 * it. */
#define BEGIN_COMPUTE(work)                                               \
    {                                                                     \
        PyThreadState *computing_ =                                      \
            (size_t)(work) >= RELEASE_WORK ? PyEval_SaveThread() : NULL;
#define END_COMPUTE                                                       \
        if (computing_ != NULL)                                           \
            PyEval_RestoreThread(computing_);                             \
    }

#define FE W_fe
#define F(name) W_##name
#define RELEASE_WORK 12288
#include "_kernels_body.h"
#undef FE
#undef F
#undef RELEASE_WORK

#define FE Z_fe
#define F(name) Z_##name
#define RELEASE_WORK 0
#include "_kernels_body.h"
#undef FE
#undef F
#undef RELEASE_WORK

/* ------------------------------------------------------------------ */
/* The entry points: parse the arguments, load the modulus and the     */
/* arbitrary-size operands, then run the kernel on the representation  */
/* the modulus selects.                                                */

/* affine_multiexp(q, w, tree_entries, instances)
 *
 * instances: [(bases, exponents)], bases as (x, y) pairs or None.
 * Returns one (x, y) pair or None per instance. */
static PyObject *affine_multiexp_on(scratch *s, PyObject *args)
{
    PyObject *qobj, *instances;
    unsigned long w;
    Py_ssize_t tree_entries;
    if (!PyArg_ParseTuple(args, "OknO!", &qobj, &w, &tree_entries,
                          &PyList_Type, &instances))
        return NULL;
    if (w < 2 || w > 16 || tree_entries < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "need a window width in [2, 16] and tree_entries >= 1");
        return NULL;
    }
    layout m;
    memset(&m, 0, sizeof m);
    m.width = (size_t)PyList_GET_SIZE(instances);
    for (size_t k = 0; k < m.width; k++) {
        PyObject *inst = PyList_GET_ITEM(instances, k);
        if (!PyTuple_Check(inst) || PyTuple_GET_SIZE(inst) != 2
            || !PyList_Check(PyTuple_GET_ITEM(inst, 0))
            || !PyList_Check(PyTuple_GET_ITEM(inst, 1))
            || PyList_GET_SIZE(PyTuple_GET_ITEM(inst, 0))
                   != PyList_GET_SIZE(PyTuple_GET_ITEM(inst, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "instances must be (bases, exponents) pairs of "
                            "equal-length lists");
            return NULL;
        }
        m.terms += (size_t)PyList_GET_SIZE(PyTuple_GET_ITEM(inst, 0));
    }

    /* z pool: q, a work value, then one exponent per term. */
    if (reserve_z(s, m.terms + 2) < 0)
        return PyErr_NoMemory();
    if (load_modulus(s->z[0], qobj, s) < 0)
        return NULL;
    for (size_t k = 0, t = 0; k < m.width; k++) {
        PyObject *exps = PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 1);
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(exps); j++, t++) {
            mpz_ptr e = s->z[2 + t];
            if (load_mpz(e, PyList_GET_ITEM(exps, j), s) < 0)
                return NULL;
            size_t b = mpz_sgn(e) ? mpz_sizeinbase(e, 2) : 0;
            if (b > m.bits)
                m.bits = b;
        }
    }
    m.w = w;
    m.positions = m.bits + w + 2;
    if (carve_all(s, 0, &m, carve_layout) != OK)
        return PyErr_NoMemory();
    for (size_t k = 0, t = 0; k < m.width; k++) {
        Py_ssize_t terms = PyList_GET_SIZE(PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 1));
        for (Py_ssize_t j = 0; j < terms; j++)
            m.owner[t++] = k;
    }
    plan_layout(&m, s->z + 2, s->z[1]);
    plan_columns(&m, (size_t)tree_entries);
    return (word_sized(s->z[0]) ? W_affine_multiexp : Z_affine_multiexp)(
        s, &m, (size_t)tree_entries, instances);
}

/* scalar_mul_vector(q, scalar, points)
 *
 * curve.batch_scalar_mul: scalar * P for every (x, y) pair or None,
 * left-to-right, one doubling round per bit and one addition round per
 * set bit across the whole vector. */
static PyObject *scalar_mul_vector_on(scratch *s, PyObject *args)
{
    PyObject *qobj, *scalarobj, *points;
    if (!PyArg_ParseTuple(args, "OOO!", &qobj, &scalarobj, &PyList_Type,
                          &points))
        return NULL;
    /* z pool: q, scalar */
    if (reserve_z(s, 2) < 0)
        return PyErr_NoMemory();
    if (load_modulus(s->z[0], qobj, s) < 0 || load_mpz(s->z[1], scalarobj, s) < 0)
        return NULL;
    if (mpz_sgn(s->z[1]) <= 0) {
        PyErr_SetString(PyExc_ValueError, "the scalar must be positive");
        return NULL;
    }
    return (word_sized(s->z[0]) ? W_scalar_mul_vector : Z_scalar_mul_vector)(
        s, points);
}

/* sample_points(q, h, count, words)
 *
 * sampling.random_subgroup_points on pre-drawn MT19937 output: words
 * holds a random.Random's 32-bit outputs in the order it produced
 * them, 4 little-endian bytes each.  Each candidate consumes them
 * exactly as randrange(q) and getrandbits(1) would: an abscissa takes
 * ceil(k/32) words (k = q.bit_length()), low word first, the top one
 * shifted right to its k mod 32 bits, and is redrawn while >= q; a
 * nonzero square x^3 + x then takes one more word, whose top bit
 * negates the root.  The count candidates are cleared by h on the
 * scalar_mul_vector rounds.
 *
 * Returns (points, used), used being the words consumed; (None, used)
 * if a candidate cleared to the identity; None if the words ran out. */
static PyObject *sample_points_on(scratch *s, PyObject *args)
{
    PyObject *qobj, *hobj;
    Py_ssize_t count, nbytes;
    const char *bytes;
    if (!PyArg_ParseTuple(args, "OOny#", &qobj, &hobj, &count, &bytes, &nbytes))
        return NULL;
    if (count < 0 || nbytes % 4 != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need count >= 0 and whole 32-bit words");
        return NULL;
    }
    size_t n = (size_t)count;
    /* Every point takes at least two words, an abscissa and a sign. */
    if (n > (size_t)nbytes / 8)
        Py_RETURN_NONE;
    /* z pool: q, h, (q+1)/4 */
    if (reserve_z(s, 3) < 0)
        return PyErr_NoMemory();
    mpz_t *z = s->z;
    if (load_modulus(z[0], qobj, s) < 0 || load_mpz(z[1], hobj, s) < 0)
        return NULL;
    if (mpz_fdiv_ui(z[0], 4) != 3 || mpz_sgn(z[1]) <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need q = 3 mod 4 and a positive cofactor");
        return NULL;
    }
    mpz_add_ui(z[2], z[0], 1);
    mpz_fdiv_q_2exp(z[2], z[2], 2);
    word_stream ws = {(const unsigned char *)bytes, (size_t)nbytes / 4, 0};
    return (word_sized(z[0]) ? W_sample_points : Z_sample_points)(s, n, &ws);
}

/* miller_schedule(q, p, point)
 *
 * pairing.miller_schedule: the cached lines of the Miller loop of the
 * (x, y) pair point over the bits of p, one (doubling, addition) pair
 * per bit below the top one, each an affine (slope, offset) pair or
 * None; [] for None.  Returns None where the Python build leaves the
 * regular case (T doubled at y = 0, T = P at an addition, a value that
 * is not a unit), so that build runs and reports it. */
static PyObject *miller_schedule_on(scratch *s, PyObject *args)
{
    PyObject *qobj, *pobj, *point;
    if (!PyArg_ParseTuple(args, "OOO", &qobj, &pobj, &point))
        return NULL;
    /* z pool: q, p */
    if (reserve_z(s, 2) < 0)
        return PyErr_NoMemory();
    if (load_modulus(s->z[0], qobj, s) < 0 || load_mpz(s->z[1], pobj, s) < 0)
        return NULL;
    return (word_sized(s->z[0]) ? W_miller_schedule : Z_miller_schedule)(s, point);
}

/* schedule_chunk(steps, q, h, xys) */
static PyObject *schedule_chunk_on(scratch *s, PyObject *args)
{
    PyObject *steps, *qobj, *hobj, *xys;
    if (!PyArg_ParseTuple(args, "O!OOO!", &PyList_Type, &steps, &qobj, &hobj,
                          &PyList_Type, &xys))
        return NULL;
    /* z pool: q, h */
    if (reserve_z(s, 2) < 0)
        return PyErr_NoMemory();
    if (load_modulus(s->z[0], qobj, s) < 0 || load_mpz(s->z[1], hobj, s) < 0)
        return NULL;
    return (word_sized(s->z[0]) ? W_schedule_chunk : Z_schedule_chunk)(s, steps, xys);
}

/* straus_fq2(values, exponents, w, digits, q) */
static PyObject *straus_fq2_on(scratch *s, PyObject *args)
{
    PyObject *values, *exponents, *qobj;
    long w, digits;
    if (!PyArg_ParseTuple(args, "O!O!llO", &PyList_Type, &values, &PyList_Type,
                          &exponents, &w, &digits, &qobj))
        return NULL;
    size_t n = (size_t)PyList_GET_SIZE(values);
    if ((size_t)PyList_GET_SIZE(exponents) != n) {
        PyErr_SetString(PyExc_ValueError, "bases and exponents differ in length");
        return NULL;
    }
    if (w < 1 || w > 16 || digits < 0) {
        PyErr_SetString(PyExc_ValueError, "bad window or digit count");
        return NULL;
    }
    /* z pool: q, then one exponent per value */
    if (reserve_z(s, 1 + n) < 0)
        return PyErr_NoMemory();
    if (load_modulus(s->z[0], qobj, s) < 0)
        return NULL;
    return (word_sized(s->z[0]) ? W_straus_fq2 : Z_straus_fq2)(
        s, values, exponents, (size_t)w, digits);
}

/* ------------------------------------------------------------------ */

/* A forked child starts with a fresh lock and empty pools: the thread
 * that may have held them in the parent does not exist here.  (The
 * parent's scratch memory is left behind, once per child.) */
static PyObject *reset_after_fork(PyObject *self, PyObject *unused)
{
    memset(&pool, 0, sizeof pool);
    W_forget();
    Z_forget();
    if ((pool_lock = PyThread_allocate_lock()) == NULL)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

LEND_SCRATCH(affine_multiexp)
LEND_SCRATCH(miller_schedule)
LEND_SCRATCH(sample_points)
LEND_SCRATCH(scalar_mul_vector)
LEND_SCRATCH(schedule_chunk)
LEND_SCRATCH(straus_fq2)

static PyMethodDef methods[] = {
    {"affine_multiexp", affine_multiexp, METH_VARARGS,
     "affine_multiexp(q, w, tree_entries, instances) -> list of (x, y) or None"},
    {"miller_schedule", miller_schedule, METH_VARARGS,
     "miller_schedule(q, p, point) -> list of (line or None, line or None), or None"},
    {"sample_points", sample_points, METH_VARARGS,
     "sample_points(q, h, count, words) -> (list of (x, y) or None, used) or None"},
    {"scalar_mul_vector", scalar_mul_vector, METH_VARARGS,
     "scalar_mul_vector(q, scalar, points) -> list of (x, y) or None"},
    {"schedule_chunk", schedule_chunk, METH_VARARGS,
     "schedule_chunk(steps, q, h, xys) -> list of (a, b)"},
    {"reset_after_fork", reset_after_fork, METH_NOARGS,
     "reset_after_fork(): run in a forked child before any kernel call"},
    {"straus_fq2", straus_fq2, METH_VARARGS,
     "straus_fq2(values, exponents, w, digits, q) -> (a, b)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_repro_kernels",
    "Compiled kernels for the lockstep affine multiexp, subgroup sampling, "
    "the Miller schedule, its evaluation and the F_{q^2} Straus loop, on "
    "word-sized residues below 2^63 and on GMP mpz_t above.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__repro_kernels(void)
{
    if (pool_lock == NULL && (pool_lock = PyThread_allocate_lock()) == NULL)
        return PyErr_NoMemory();
    return PyModule_Create(&module);
}
