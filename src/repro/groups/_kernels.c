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
 *                    would consume them, rooted with mpz_powm and
 *                    cleared by the cofactor on the same rounds;
 *   schedule_chunk   repro.groups.pairing.evaluate_schedule_chunk: a
 *                    cached Miller schedule evaluated at many points,
 *                    batched y_Q and norm inversions and the final
 *                    exponentiation included;
 *   straus_fq2       one F_{q^2} Straus multiexp of
 *                    repro.groups.fastops._straus_fq2_shared.
 *
 * The Python kernels are the reference: every value returned here is
 * the canonical residue those kernels return.  Operands are converted
 * to mpz_t once per call; the arithmetic then runs with the interpreter
 * lock released, on a scratch mpz_t pool reused across calls.
 * Every size of q runs the same mpz_t code.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <gmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Scratch: mpz_t and point pools that only ever grow, reused across   */
/* calls.  There is one, lent to one call at a time: a call holds it   */
/* while it computes without the interpreter lock, so another thread's */
/* Python runs meanwhile, and a second kernel call waits for it.       */

typedef struct {
    mpz_t x, y;
    int inf;
} point;

typedef struct {
    mpz_t *z;
    size_t nz;
    point *p;
    size_t np;
    unsigned char *bytes;  /* int <-> mpz_t conversions */
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

/* Grow the pools to exactly n entries (memory stays at the largest call
 * seen); earlier pointers into them are invalid afterwards. */
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

static int reserve_p(scratch *s, size_t n)
{
    if (n <= s->np)
        return 0;
    point *p = realloc(s->p, n * sizeof *p);
    if (p == NULL)
        return -1;
    for (size_t i = s->np; i < n; i++) {
        mpz_init(p[i].x);
        mpz_init(p[i].y);
    }
    s->p = p;
    s->np = n;
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

/* ------------------------------------------------------------------ */
/* int <-> mpz_t                                                       */

/* A non-negative int as an mpz_t (a negative one raises OverflowError). */
static int load_mpz(mpz_t out, PyObject *obj, scratch *s)
{
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "kernel operands must be int");
        return -1;
    }
    size_t bits = _PyLong_NumBits(obj);
    if (bits == (size_t)-1 && PyErr_Occurred())
        return -1;
    size_t len = (bits + 7) / 8;
    if (reserve_bytes(s, len ? len : 1) < 0) {
        PyErr_NoMemory();
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000
    if (PyLong_AsNativeBytes(obj, s->bytes, (Py_ssize_t)len,
                             Py_ASNATIVEBYTES_LITTLE_ENDIAN
                                 | Py_ASNATIVEBYTES_UNSIGNED_BUFFER
                                 | Py_ASNATIVEBYTES_REJECT_NEGATIVE) < 0)
        return -1;
#else
    if (_PyLong_AsByteArray((PyLongObject *)obj, s->bytes, len, 1, 0) < 0)
        return -1;
#endif
    mpz_import(out, len, -1, 1, 0, 0, s->bytes);
    return 0;
}

/* A non-negative mpz_t as an int. */
static PyObject *store_mpz(const mpz_t z, scratch *s)
{
    size_t len = (mpz_sizeinbase(z, 2) + 7) / 8;
    if (reserve_bytes(s, len) < 0)
        return PyErr_NoMemory();
    size_t count = 0;
    mpz_export(s->bytes, &count, -1, 1, 0, 0, z);
    return _PyLong_FromByteArray(s->bytes, count, 1, 0);
}

static PyObject *store_pair(const mpz_t a, const mpz_t b, scratch *s)
{
    PyObject *x = store_mpz(a, s);
    PyObject *y = x == NULL ? NULL : store_mpz(b, s);
    PyObject *pair = y == NULL ? NULL : PyTuple_Pack(2, x, y);
    Py_XDECREF(x);
    Py_XDECREF(y);
    return pair;
}

/* Points as a list of (x, y) pairs, None for infinity. */
static PyObject *store_points(point *const *pts, size_t n, scratch *s)
{
    PyObject *list = PyList_New((Py_ssize_t)n);
    for (size_t i = 0; list != NULL && i < n; i++) {
        PyObject *item = Py_None;
        if (pts[i]->inf)
            Py_INCREF(item);
        else
            item = store_pair(pts[i]->x, pts[i]->y, s);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, (Py_ssize_t)i, item);
    }
    return list;
}

/* ``(x, y)`` reduced mod q; returns 0 and sets *is_none for None. */
static int load_pair(mpz_t a, mpz_t b, PyObject *obj, const mpz_t q,
                     scratch *s, int *is_none)
{
    if (obj == Py_None) {
        *is_none = 1;
        return 0;
    }
    *is_none = 0;
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != 2) {
        PyErr_SetString(PyExc_TypeError, "expected an (x, y) pair or None");
        return -1;
    }
    if (load_mpz(a, PyTuple_GET_ITEM(obj, 0), s) < 0
        || load_mpz(b, PyTuple_GET_ITEM(obj, 1), s) < 0)
        return -1;
    mpz_mod(a, a, q);
    mpz_mod(b, b, q);
    return 0;
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

/* Montgomery's trick over vals[0..n): out[k] = 1 / vals[k] mod q with
 * one inversion.  prefix needs n entries; -1 if some value is 0. */
static int batch_invert(mpz_t *out, mpz_t *vals, size_t n, const mpz_t q,
                        mpz_t *prefix, mpz_t acc, mpz_t t)
{
    if (n == 0)
        return 0;
    mpz_set_ui(acc, 1);
    for (size_t k = 0; k < n; k++) {
        mpz_set(prefix[k], acc);
        mpz_mul(acc, acc, vals[k]);
        mpz_mod(acc, acc, q);
    }
    if (!mpz_invert(acc, acc, q))
        return -1;
    for (size_t k = n; k-- > 0;) {
        mpz_mul(t, acc, prefix[k]);
        mpz_mul(acc, acc, vals[k]);
        mpz_mod(acc, acc, q);
        mpz_mod(out[k], t, q);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Lockstep affine rounds on y^2 = x^3 + x (a = 1).                    */
/*                                                                     */
/* Element i of a round reads its operands, then writes its sum to     */
/* *dest[i] and sets out[i] to dest[i]; a special case sets out[i] to  */
/* an operand or to the shared infinity point instead.  dest[i] may be */
/* one of element i's own operands (in-place accumulators), never      */
/* another element's.                                                  */

enum { OK = 0, SINGULAR = 1, NO_MEMORY = 2 };

typedef struct {
    mpz_ptr q, acc, inv, t, u, slope, x3;
    mpz_t *prefix;  /* one per element of the widest round */
    size_t *pending;
    point *inf;
} rounds;

static void finish(rounds *c, point *dest, const point *l, const mpz_t x2)
{
    /* x3 = slope^2 - x1 - x2, y3 = slope (x1 - x3) - y1 */
    mpz_mul(c->x3, c->slope, c->slope);
    mpz_sub(c->x3, c->x3, l->x);
    mpz_sub(c->x3, c->x3, x2);
    mpz_mod(c->x3, c->x3, c->q);
    mpz_sub(c->t, l->x, c->x3);
    mpz_mul(c->t, c->t, c->slope);
    mpz_sub(c->t, c->t, l->y);
    mpz_mod(dest->y, c->t, c->q);
    mpz_set(dest->x, c->x3);  /* a copy keeps the pool's limbs small */
    dest->inf = 0;
}

/* lefts[i] + rights[i] for every i, one inversion: curve.batch_add_affine. */
static int add_round(rounds *c, point **out, point *const *lefts,
                     point *const *rights, point *const *dest, size_t n)
{
    size_t np = 0;
    mpz_set_ui(c->acc, 1);
    for (size_t i = 0; i < n; i++) {
        point *l = lefts[i], *r = rights[i];
        if (l->inf) {
            out[i] = r;
            continue;
        }
        if (r->inf) {
            out[i] = l;
            continue;
        }
        if (mpz_cmp(l->x, r->x) != 0)
            mpz_sub(c->t, r->x, l->x);
        else if (mpz_cmp(l->y, r->y) == 0 && mpz_sgn(l->y) != 0)
            mpz_add(c->t, l->y, l->y);
        else {  /* P + (-P), or a 2-torsion point doubled */
            out[i] = c->inf;
            continue;
        }
        mpz_set(c->prefix[np], c->acc);
        c->pending[np++] = i;
        mpz_mul(c->acc, c->acc, c->t);
        mpz_mod(c->acc, c->acc, c->q);
    }
    if (np == 0)
        return OK;
    if (!mpz_invert(c->inv, c->acc, c->q))
        return SINGULAR;
    while (np-- > 0) {
        size_t i = c->pending[np];
        point *l = lefts[i], *r = rights[i];
        if (mpz_cmp(l->x, r->x) != 0) {
            mpz_sub(c->t, r->y, l->y);
            mpz_sub(c->u, r->x, l->x);
        } else {
            mpz_mul(c->t, l->x, l->x);
            mpz_mul_ui(c->t, c->t, 3);
            mpz_add_ui(c->t, c->t, 1);
            mpz_add(c->u, l->y, l->y);
        }
        mpz_mul(c->slope, c->t, c->inv);
        mpz_mul(c->slope, c->slope, c->prefix[np]);
        mpz_mod(c->slope, c->slope, c->q);
        mpz_mul(c->inv, c->inv, c->u);
        mpz_mod(c->inv, c->inv, c->q);
        finish(c, dest[i], l, r->x);
        out[i] = dest[i];
    }
    return OK;
}

/* 2 in[i] for every i, one inversion: curve.batch_double_affine. */
static int double_round(rounds *c, point **out, point *const *in,
                        point *const *dest, size_t n)
{
    size_t np = 0;
    mpz_set_ui(c->acc, 1);
    for (size_t i = 0; i < n; i++) {
        point *p = in[i];
        if (p->inf || mpz_sgn(p->y) == 0) {  /* infinity or 2-torsion */
            out[i] = c->inf;
            continue;
        }
        mpz_set(c->prefix[np], c->acc);
        c->pending[np++] = i;
        mpz_add(c->t, p->y, p->y);
        mpz_mul(c->acc, c->acc, c->t);
        mpz_mod(c->acc, c->acc, c->q);
    }
    if (np == 0)
        return OK;
    if (!mpz_invert(c->inv, c->acc, c->q))
        return SINGULAR;
    while (np-- > 0) {
        size_t i = c->pending[np];
        point *p = in[i];
        mpz_mul(c->t, p->x, p->x);
        mpz_mul_ui(c->t, c->t, 3);
        mpz_add_ui(c->t, c->t, 1);
        mpz_mul(c->slope, c->t, c->inv);
        mpz_mul(c->slope, c->slope, c->prefix[np]);
        mpz_mod(c->slope, c->slope, c->q);
        mpz_add(c->t, p->y, p->y);
        mpz_mul(c->inv, c->inv, c->t);
        mpz_mod(c->inv, c->inv, c->q);
        finish(c, dest[i], p, p->x);
        out[i] = dest[i];
    }
    return OK;
}

/* ------------------------------------------------------------------ */
/* affine_multiexp(q, w, tree_entries, instances)                      */
/*                                                                     */
/* instances: [(bases, exponents)], bases as (x, y) pairs or None.     */
/* Returns one (x, y) pair or None per instance.                       */

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
    /* Where the rounds keep their pointers. */
    size_t npos, ncols, column_slots, slice_slots, widest;
    point **table_ptrs;     /* per table slot: P, -P, 3P, -3P, ... */
    point **doubles;        /* per term: 2P */
    point **columns;        /* per column slot: an entry to add */
    point **tree_out;       /* per column slot of a slice: a tree output */
    point ***cols;          /* per column of a slice: its live vector */
    size_t *group_first, *group_cols;  /* per position of a slice */
    point **acc;            /* per instance: the Horner accumulator */
    point **lefts, **rights, **dests, **outs;  /* per round element */
    size_t *pending;
} plan;

/* The plan's arrays are carved from the scratch's byte buffers, so a
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

#define CARVE(field, count) (m->field = carve(c, (count), sizeof *m->field))

static void carve_layout(plan *m, carver *c)
{
    size_t per_term = m->bits / m->w + 2;  /* bounds a term's digits */
    CARVE(owner, m->terms);
    CARVE(multiples, m->terms);
    CARVE(table, m->terms);
    CARVE(entry_start, m->terms + 1);
    CARVE(entry_position, m->terms * per_term);
    CARVE(entry_column, m->terms * per_term);
    CARVE(entry_index, m->terms * per_term);
    CARVE(depth, m->positions);
    CARVE(filled, m->positions);
    CARVE(order, m->positions);
    CARVE(col_offset, m->positions);
}

static void carve_rounds(plan *m, carver *c)
{
    CARVE(table_ptrs, m->slots);
    CARVE(doubles, m->terms);
    CARVE(columns, m->column_slots);
    CARVE(tree_out, m->slice_slots);
    CARVE(cols, m->ncols);
    CARVE(group_first, m->npos);
    CARVE(group_cols, m->npos);
    CARVE(acc, m->width);
    CARVE(lefts, m->widest);
    CARVE(rights, m->widest);
    CARVE(dests, m->widest);
    CARVE(outs, m->widest);
    CARVE(pending, m->widest);
}

#undef CARVE

/* Run fill over scratch buffer k, growing the buffer once if needed. */
static int carve_all(scratch *s, int k, plan *m, void (*fill)(plan *, carver *))
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
static void plan_layout(plan *m, mpz_t *exps, mpz_t work)
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
static void plan_columns(plan *m, size_t tree_entries)
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

/* Point pool layout: table slots, then one double per term, one tree
 * output per column slot of the widest slice, one accumulator per
 * instance. */
#define AT_DOUBLES(m) ((m)->slots)
#define AT_TREE(m) (AT_DOUBLES(m) + (m)->terms)
#define AT_ACC(m) (AT_TREE(m) + (m)->slice_slots)
#define POOL_POINTS(m) (AT_ACC(m) + (m)->width)

/* fastops._batch_affine_multiexp on the plan; the bases are already in
 * table slot 0 of each term.  Runs without the interpreter lock. */
static int run_multiexp(plan *m, rounds *c, point *pool, size_t tree_entries)
{
    int status = OK;
    point *inf = c->inf;

    /* Odd multiples P, 3P, 5P, ... up to each term's largest digit: one
     * doubling round for every 2P, then one addition round per
     * multiple, each across every term of every instance. */
    size_t n = 0, rows = 1;
    for (size_t t = 0; t < m->terms; t++) {
        m->table_ptrs[m->table[t]] = &pool[m->table[t]];
        if (m->multiples[t] > 1) {
            m->lefts[n] = &pool[m->table[t]];
            m->dests[n] = &pool[AT_DOUBLES(m) + t];
            n++;
        }
        if (m->multiples[t] > rows)
            rows = m->multiples[t];
    }
    status |= double_round(c, m->outs, m->lefts, m->dests, n);
    n = 0;
    for (size_t t = 0; t < m->terms; t++)
        if (m->multiples[t] > 1)
            m->doubles[t] = m->outs[n++];
    for (size_t row = 1; status == OK && row < rows; row++) {
        n = 0;
        for (size_t t = 0; t < m->terms; t++) {
            if (m->multiples[t] > row) {
                m->lefts[n] = m->table_ptrs[m->table[t] + 2 * (row - 1)];
                m->rights[n] = m->doubles[t];
                m->dests[n] = &pool[m->table[t] + 2 * row];
                n++;
            }
        }
        status |= add_round(c, m->outs, m->lefts, m->rights, m->dests, n);
        n = 0;
        for (size_t t = 0; t < m->terms; t++)
            if (m->multiples[t] > row)
                m->table_ptrs[m->table[t] + 2 * row] = m->outs[n++];
    }
    /* ... and the negatives -P, -3P, ... beside them. */
    for (size_t t = 0; t < m->terms; t++) {
        for (size_t row = 0; row < m->multiples[t]; row++) {
            size_t slot = m->table[t] + 2 * row;
            point *pos = m->table_ptrs[slot], *neg = &pool[slot + 1];
            if (pos->inf) {
                m->table_ptrs[slot + 1] = inf;
                continue;
            }
            mpz_set(neg->x, pos->x);
            mpz_neg(neg->y, pos->y);
            mpz_mod(neg->y, neg->y, c->q);
            neg->inf = 0;
            m->table_ptrs[slot + 1] = neg;
        }
    }

    /* Per bit position, the table entries to add as columns over the
     * instances (column k holds each instance's k-th entry there). */
    for (size_t i = 0; i < m->column_slots; i++)
        m->columns[i] = inf;
    for (size_t t = 0; t < m->terms; t++)
        for (size_t e = m->entry_start[t]; e < m->entry_start[t + 1]; e++)
            m->columns[m->col_offset[m->entry_position[e]]
                       + m->entry_column[e] * m->width + m->owner[t]]
                = m->table_ptrs[m->table[t] + m->entry_index[e]];

    /* Each slice of positions has its columns summed by balanced trees
     * (fastops._sum_column_groups): a round adds the column pairs of
     * every position of the slice at once.  Horner then folds the
     * slice's sums in from the top bit down, acc = 2^gap * acc + sum,
     * before the next slice reuses the tree storage. */
    for (size_t i = 0; i < m->width; i++)
        m->acc[i] = inf;
    for (size_t start = 0; status == OK && start < m->npos;) {
        size_t stop = start, entries = 0, ncols = 0, tree_used = 0;
        while (stop < m->npos && entries < tree_entries) {
            size_t pos = m->order[stop];
            entries += m->depth[pos] * m->width;
            m->group_first[stop] = ncols;
            m->group_cols[stop] = m->depth[pos];
            for (size_t col = 0; col < m->depth[pos]; col++)
                m->cols[ncols++] = m->columns + m->col_offset[pos] + col * m->width;
            stop++;
        }
        while (status == OK) {
            n = 0;
            for (size_t gi = start; gi < stop; gi++) {
                point ***group = m->cols + m->group_first[gi];
                for (size_t j = 0; j + 1 < m->group_cols[gi]; j += 2)
                    for (size_t i = 0; i < m->width; i++) {
                        m->lefts[n] = group[j][i];
                        m->rights[n] = group[j + 1][i];
                        m->dests[n] = &pool[AT_TREE(m) + tree_used + n];
                        n++;
                    }
            }
            if (n == 0)
                break;
            point **out = m->tree_out + tree_used;
            tree_used += n;
            status |= add_round(c, out, m->lefts, m->rights, m->dests, n);
            for (size_t gi = start; gi < stop; gi++) {
                point ***group = m->cols + m->group_first[gi];
                size_t pairs = m->group_cols[gi] / 2;
                point **last = group[m->group_cols[gi] - 1];
                for (size_t j = 0; j < pairs; j++, out += m->width)
                    group[j] = out;
                if (m->group_cols[gi] & 1)
                    group[pairs] = last;
                m->group_cols[gi] = (m->group_cols[gi] + 1) / 2;
            }
        }
        for (size_t i = 0; i < m->width; i++)
            m->dests[i] = &pool[AT_ACC(m) + i];
        for (size_t k = start; status == OK && k < stop; k++) {
            if (k > 0)
                for (size_t gap = m->order[k - 1] - m->order[k]; gap > 0; gap--)
                    status |= double_round(c, m->acc, m->acc, m->dests, m->width);
            status |= add_round(c, m->acc, m->acc, m->cols[m->group_first[k]],
                                m->dests, m->width);
        }
        /* An accumulator that passed a tree sum through is copied out of
         * the tree storage the next slice overwrites.  (An infinity it
         * passed through may be a base given as None.) */
        for (size_t i = 0; i < m->width; i++) {
            point *own = m->dests[i];
            if (m->acc[i]->inf) {
                m->acc[i] = inf;
            } else if (m->acc[i] != own) {
                mpz_set(own->x, m->acc[i]->x);
                mpz_set(own->y, m->acc[i]->y);
                own->inf = 0;
                m->acc[i] = own;
            }
        }
        start = stop;
    }
    if (m->npos > 0)
        for (size_t gap = m->order[m->npos - 1]; status == OK && gap > 0; gap--)
            status |= double_round(c, m->acc, m->acc, m->dests, m->width);
    return status;
}

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
    plan m;
    memset(&m, 0, sizeof m);
    PyObject *result = NULL;
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
    int status = reserve_z(s, m.terms + 2) < 0 ? NO_MEMORY : OK;
    if (status != OK)
        goto done;
    if (load_modulus(s->z[0], qobj, s) < 0)
        goto done;
    for (size_t k = 0, t = 0; k < m.width; k++) {
        PyObject *exps = PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 1);
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(exps); j++, t++) {
            mpz_ptr e = s->z[2 + t];
            if (load_mpz(e, PyList_GET_ITEM(exps, j), s) < 0)
                goto done;
            size_t b = mpz_sgn(e) ? mpz_sizeinbase(e, 2) : 0;
            if (b > m.bits)
                m.bits = b;
        }
    }
    m.w = w;
    m.positions = m.bits + w + 2;
    status = carve_all(s, 0, &m, carve_layout);
    if (status != OK)
        goto done;
    for (size_t k = 0, t = 0; k < m.width; k++) {
        Py_ssize_t terms = PyList_GET_SIZE(PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 1));
        for (Py_ssize_t j = 0; j < terms; j++)
            m.owner[t++] = k;
    }
    plan_layout(&m, s->z + 2, s->z[1]);
    plan_columns(&m, (size_t)tree_entries);
    status = carve_all(s, 1, &m, carve_rounds);
    if (status == OK && (reserve_p(s, POOL_POINTS(&m) + 1) < 0
                         || reserve_z(s, m.widest + 8) < 0))
        status = NO_MEMORY;
    if (status != OK)
        goto done;
    point *pool = s->p, *inf = &pool[POOL_POINTS(&m)];
    inf->inf = 1;
    for (size_t k = 0, t = 0; k < m.width; k++) {
        PyObject *bases = PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 0);
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(bases); j++, t++) {
            point *base = &pool[m.table[t]];
            if (load_pair(base->x, base->y, PyList_GET_ITEM(bases, j), s->z[0],
                          s, &base->inf) < 0)
                goto done;
        }
    }
    mpz_t *z = s->z;
    rounds c = {z[0], z[1], z[2], z[3], z[4], z[5], z[6], z + 8, m.pending, inf};
    Py_BEGIN_ALLOW_THREADS
    status = run_multiexp(&m, &c, pool, (size_t)tree_entries);
    Py_END_ALLOW_THREADS
    if (status != OK)
        goto done;
    result = store_points(m.acc, m.width, s);
done:
    if (status == NO_MEMORY)
        PyErr_NoMemory();
    else if (status != OK)
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "a slope denominator is not invertible");
    return result;
}

/* ------------------------------------------------------------------ */
/* scalar_mul_vector(q, scalar, points)                                */
/*                                                                     */
/* curve.batch_scalar_mul: scalar * P for every (x, y) pair or None,   */
/* left-to-right, one doubling round per bit and one addition round    */
/* per set bit across the whole vector.                                */

/* acc[i] = scalar * bases[i] for every i, acc starting as the bases. */
static int scalar_mul_rounds(rounds *c, point **acc, point *const *bases,
                             point *const *dests, size_t n, const mpz_t scalar)
{
    int status = OK;
    for (size_t bit = mpz_sizeinbase(scalar, 2) - 1; status == OK && bit-- > 0;) {
        status |= double_round(c, acc, acc, dests, n);
        if (mpz_tstbit(scalar, bit))
            status |= add_round(c, acc, acc, bases, dests, n);
    }
    return status;
}

static PyObject *scalar_mul_vector_on(scratch *s, PyObject *args)
{
    PyObject *qobj, *scalarobj, *points;
    if (!PyArg_ParseTuple(args, "OOO!", &qobj, &scalarobj, &PyList_Type,
                          &points))
        return NULL;
    size_t n = (size_t)PyList_GET_SIZE(points);
    /* z pool: q, scalar, 6 temporaries, prefix; points: bases, acc, inf */
    if (reserve_z(s, n + 8) < 0 || reserve_p(s, 2 * n + 1) < 0)
        return PyErr_NoMemory();
    mpz_t *z = s->z;
    if (load_modulus(z[0], qobj, s) < 0 || load_mpz(z[1], scalarobj, s) < 0)
        return NULL;
    if (mpz_sgn(z[1]) <= 0) {
        PyErr_SetString(PyExc_ValueError, "the scalar must be positive");
        return NULL;
    }
    point *pool = s->p, *inf = &pool[2 * n];
    inf->inf = 1;
    PyObject *result = NULL;
    point **ptrs = malloc((4 * n + 1) * sizeof *ptrs);
    size_t *pending = malloc((n + 1) * sizeof *pending);
    if (ptrs == NULL || pending == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    point **bases = ptrs, **acc = ptrs + n, **dests = ptrs + 2 * n;
    for (size_t i = 0; i < n; i++) {
        if (load_pair(pool[i].x, pool[i].y, PyList_GET_ITEM(points, i), z[0], s,
                      &pool[i].inf) < 0)
            goto done;
        bases[i] = acc[i] = &pool[i];
        dests[i] = &pool[n + i];
    }
    rounds c = {z[0], z[2], z[3], z[4], z[5], z[6], z[7], z + 8, pending, inf};
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = scalar_mul_rounds(&c, acc, bases, dests, n, z[1]);
    Py_END_ALLOW_THREADS
    if (status != OK) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "a slope denominator is not invertible");
        goto done;
    }
    result = store_points(acc, n, s);
done:
    free(ptrs);
    free(pending);
    return result;
}

/* ------------------------------------------------------------------ */
/* sample_points(q, h, count, words)                                   */
/*                                                                     */
/* sampling.random_subgroup_points on pre-drawn MT19937 output: words  */
/* holds a random.Random's 32-bit outputs in the order it produced     */
/* them, 4 little-endian bytes each.  Each candidate consumes them     */
/* exactly as randrange(q) and getrandbits(1) would: an abscissa takes */
/* ceil(k/32) words (k = q.bit_length()), low word first, the top one  */
/* shifted right to its k mod 32 bits, and is redrawn while >= q; a    */
/* nonzero square x^3 + x then takes one more word, whose top bit      */
/* negates the root.  The count candidates are cleared by h on the     */
/* scalar_mul_vector rounds.                                           */
/*                                                                     */
/* Returns (points, used), used being the words consumed; (None, used) */
/* if a candidate cleared to the identity; None if the words ran out.  */

enum { RAN_OUT = 4 };

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

/* Candidate points into pts[0..count), drawn as the Python loop draws
 * them; q = 3 mod 4, so root = rhs^((q+1)/4) is a square root exactly
 * when rhs is a square.  digits holds ceil(k/32) words. */
static int draw_candidates(point *pts, size_t count, word_stream *ws,
                           const mpz_t q, const mpz_t root, mpz_t rhs,
                           mpz_t t, uint32_t *digits)
{
    size_t k = mpz_sizeinbase(q, 2), nw = (k + 31) / 32;
    unsigned shift = (unsigned)((32 - k % 32) % 32);
    for (size_t i = 0; i < count; i++) {
        point *pt = &pts[i];
        for (;;) {
            do {  /* randrange(q) */
                if (ws->n - ws->used < nw)
                    return RAN_OUT;
                for (size_t j = 0; j < nw; j++)
                    digits[j] = next_word(ws);
                digits[nw - 1] >>= shift;
                mpz_import(pt->x, nw, -1, sizeof *digits, 0, 0, digits);
            } while (mpz_cmp(pt->x, q) >= 0);
            mpz_mul(t, pt->x, pt->x);
            mpz_add_ui(t, t, 1);
            mpz_mul(rhs, t, pt->x);
            mpz_mod(rhs, rhs, q);
            if (mpz_sgn(rhs) == 0)
                continue;
            mpz_powm(pt->y, rhs, root, q);
            mpz_mul(t, pt->y, pt->y);
            mpz_mod(t, t, q);
            if (mpz_cmp(t, rhs) != 0)
                continue;
            if (ws->used == ws->n)
                return RAN_OUT;
            if (next_word(ws) >> 31)  /* getrandbits(1) */
                mpz_sub(pt->y, q, pt->y);
            pt->inf = 0;
            break;
        }
    }
    return OK;
}

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
    /* z pool: q, h, 6 round temporaries, (q+1)/4, rhs, t, prefix;
     * points: candidates, accumulators, inf */
    if (reserve_z(s, n + 11) < 0 || reserve_p(s, 2 * n + 1) < 0)
        return PyErr_NoMemory();
    mpz_t *z = s->z;
    if (load_modulus(z[0], qobj, s) < 0 || load_mpz(z[1], hobj, s) < 0)
        return NULL;
    if (mpz_fdiv_ui(z[0], 4) != 3 || mpz_sgn(z[1]) <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need q = 3 mod 4 and a positive cofactor");
        return NULL;
    }
    mpz_add_ui(z[8], z[0], 1);
    mpz_fdiv_q_2exp(z[8], z[8], 2);
    point *pool = s->p, *inf = &pool[2 * n];
    inf->inf = 1;
    PyObject *result = NULL;
    point **ptrs = malloc((3 * n + 1) * sizeof *ptrs);
    size_t *pending = malloc((n + 1) * sizeof *pending);
    uint32_t *digits = malloc((mpz_sizeinbase(z[0], 2) + 31) / 32 * sizeof *digits);
    if (ptrs == NULL || pending == NULL || digits == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    point **bases = ptrs, **acc = ptrs + n, **dests = ptrs + 2 * n;
    for (size_t i = 0; i < n; i++) {
        bases[i] = acc[i] = &pool[i];
        dests[i] = &pool[n + i];
    }
    word_stream ws = {(const unsigned char *)bytes, (size_t)nbytes / 4, 0};
    rounds c = {z[0], z[2], z[3], z[4], z[5], z[6], z[7], z + 11, pending, inf};
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = draw_candidates(pool, n, &ws, z[0], z[8], z[9], z[10], digits);
    if (status == OK)
        status = scalar_mul_rounds(&c, acc, bases, dests, n, z[1]);
    Py_END_ALLOW_THREADS
    if (status == RAN_OUT) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (status != OK) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "a slope denominator is not invertible");
        goto done;
    }
    int identity = 0;
    for (size_t i = 0; i < n; i++)
        identity |= acc[i]->inf;
    PyObject *points = identity ? Py_NewRef(Py_None) : store_points(acc, n, s);
    if (points != NULL)
        result = Py_BuildValue("(Nn)", points, (Py_ssize_t)ws.used);
done:
    free(ptrs);
    free(pending);
    free(digits);
    return result;
}

/* ------------------------------------------------------------------ */
/* schedule_chunk(steps, q, h, xys)                                    */

static PyObject *schedule_chunk_on(scratch *s, PyObject *args)
{
    PyObject *steps, *qobj, *hobj, *xys;
    if (!PyArg_ParseTuple(args, "O!OOO!", &PyList_Type, &steps, &qobj, &hobj,
                          &PyList_Type, &xys))
        return NULL;
    size_t nsteps = (size_t)PyList_GET_SIZE(steps);
    size_t n = (size_t)PyList_GET_SIZE(xys);
    /* z pool: q, h, 8 temporaries, 4 coefficients per step, then per
     * point x, y (later a, b), 1/y (later 1/N), prefix */
    enum { Q, H, T0, T1, T2, T3, T4, T5, T6, T7, FIXED };
    size_t at_coeffs = FIXED, at_points = at_coeffs + 4 * nsteps;
    if (reserve_z(s, at_points + 4 * n + 1) < 0)
        return PyErr_NoMemory();
    mpz_t *z = s->z;
    mpz_ptr q = z[Q], h = z[H];
    mpz_t *coeffs = z + at_coeffs;
    mpz_t *xs = z + at_points, *ys = xs + n, *invs = ys + n, *prefix = invs + n;
    PyObject *result = NULL;
    unsigned char *kinds = malloc(nsteps + 1);  /* bit 0 doubling, 1 addition */
    size_t *live = malloc((n + 1) * sizeof(size_t));
    if (kinds == NULL || live == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_modulus(q, qobj, s) < 0 || load_mpz(h, hobj, s) < 0)
        goto done;
    for (size_t k = 0; k < nsteps; k++) {
        PyObject *step = PyList_GET_ITEM(steps, k);
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 2) {
            PyErr_SetString(PyExc_TypeError, "schedule steps must be pairs");
            goto done;
        }
        kinds[k] = 0;
        for (int part = 0; part < 2; part++) {
            int is_none;
            if (load_pair(coeffs[4 * k + 2 * part], coeffs[4 * k + 2 * part + 1],
                          PyTuple_GET_ITEM(step, part), q, s, &is_none) < 0)
                goto done;
            if (!is_none)
                kinds[k] |= (unsigned char)(1 << part);
        }
    }
    /* A point at infinity, or y_Q = 0 (every line lies in F_q): 1. */
    size_t nlive = 0;
    for (size_t k = 0; k < n; k++) {
        int is_none;
        if (load_pair(xs[nlive], ys[nlive], PyList_GET_ITEM(xys, k), q, s,
                      &is_none) < 0)
            goto done;
        if (!is_none && mpz_sgn(ys[nlive]) != 0)
            live[nlive++] = k;
    }

    int failed;
    Py_BEGIN_ALLOW_THREADS
    mpz_ptr a = z[T0], b = z[T1], s0 = z[T2], s1 = z[T3], c = z[T4];
    mpz_ptr t = z[T5], u = z[T6], v = z[T7];
    failed = batch_invert(invs, ys, nlive, q, prefix, a, b);
    for (size_t k = 0; !failed && k < nlive; k++) {
        /* Lines scaled by -1/y_Q are c + i with
         * c = slope * (x_Q / y_Q) + offset * (-1 / y_Q). */
        mpz_mul(u, xs[k], invs[k]);
        mpz_mod(u, u, q);
        mpz_neg(v, invs[k]);
        mpz_mod(v, v, q);
        mpz_set_ui(a, 1);
        mpz_set_ui(b, 0);
        for (size_t j = 0; j < nsteps; j++) {
            /* f^2 = (a - b)(a + b) + 2ab i */
            mpz_sub(t, a, b);
            mpz_add(s0, a, b);
            mpz_mul(s0, s0, t);
            mpz_mul(s1, a, b);
            mpz_mul_2exp(s1, s1, 1);
            if (kinds[j] & 1) {
                mpz_mul(c, coeffs[4 * j], u);
                mpz_addmul(c, coeffs[4 * j + 1], v);
                mpz_mod(c, c, q);
                /* (s0 + s1 i)(c + i) */
                mpz_mul(a, s0, c);
                mpz_sub(a, a, s1);
                mpz_mod(a, a, q);
                mpz_mul(b, s1, c);
                mpz_add(b, b, s0);
                mpz_mod(b, b, q);
            } else {
                mpz_mod(a, s0, q);
                mpz_mod(b, s1, q);
            }
            if (kinds[j] & 2) {
                mpz_mul(c, coeffs[4 * j + 2], u);
                mpz_addmul(c, coeffs[4 * j + 3], v);
                mpz_mod(c, c, q);
                mpz_mul(t, a, c);
                mpz_sub(t, t, b);
                mpz_mul(b, b, c);
                mpz_add(b, b, a);
                mpz_mod(b, b, q);
                mpz_mod(a, t, q);
            }
        }
        mpz_swap(xs[k], a);
        mpz_swap(ys[k], b);
        /* the norm a^2 + b^2, inverted below with the others' */
        mpz_mul(invs[k], xs[k], xs[k]);
        mpz_addmul(invs[k], ys[k], ys[k]);
        mpz_mod(invs[k], invs[k], q);
    }
    if (!failed)
        failed = batch_invert(invs, invs, nlive, q, prefix, a, b);
    /* Final exponentiation (q - 1) h: f^(q-1) = conj(f)^2 / N(f), then
     * h by squaring the unitary result as (2 r0^2 - 1) + 2 r0 r1 i. */
    size_t hbits = mpz_sgn(h) > 0 ? mpz_sizeinbase(h, 2) : 1;
    for (size_t k = 0; !failed && k < nlive; k++) {
        mpz_ptr x0 = s0, x1 = s1, r0 = xs[k], r1 = ys[k];
        mpz_sub(t, r0, r1);
        mpz_add(x0, r0, r1);
        mpz_mul(x0, x0, t);
        mpz_mul(x0, x0, invs[k]);
        mpz_mod(x0, x0, q);
        mpz_mul(x1, r0, r1);
        mpz_mul_2exp(x1, x1, 1);
        mpz_mul(x1, x1, invs[k]);
        mpz_neg(x1, x1);
        mpz_mod(x1, x1, q);
        mpz_set(r0, x0);
        mpz_set(r1, x1);
        for (size_t bit = hbits - 1; bit-- > 0;) {
            mpz_mul(t, r0, r1);
            mpz_mul_2exp(t, t, 1);
            mpz_mul(r0, r0, r0);
            mpz_mul_2exp(r0, r0, 1);
            mpz_sub_ui(r0, r0, 1);
            mpz_mod(r0, r0, q);
            mpz_mod(r1, t, q);
            if (mpz_tstbit(h, bit)) {
                mpz_mul(t, r0, x0);
                mpz_submul(t, r1, x1);
                mpz_mul(u, r0, x1);
                mpz_addmul(u, r1, x0);
                mpz_mod(r0, t, q);
                mpz_mod(r1, u, q);
            }
        }
    }
    Py_END_ALLOW_THREADS
    if (failed) {
        PyErr_SetString(PyExc_ZeroDivisionError, "a value is not invertible");
        goto done;
    }
    result = PyList_New((Py_ssize_t)n);
    if (result == NULL)
        goto done;
    PyObject *one = NULL;
    for (size_t k = 0, j = 0; k < n; k++) {
        PyObject *item;
        if (j < nlive && live[j] == k) {
            item = store_pair(xs[j], ys[j], s);
            j++;
        } else {
            if (one == NULL)
                one = Py_BuildValue("(ii)", 1, 0);
            item = one;
            Py_XINCREF(item);
        }
        if (item == NULL) {
            Py_CLEAR(result);
            break;
        }
        PyList_SET_ITEM(result, (Py_ssize_t)k, item);
    }
    Py_XDECREF(one);
done:
    free(kinds);
    free(live);
    return result;
}

/* ------------------------------------------------------------------ */
/* straus_fq2(values, exponents, w, digits, q)                         */

/* (a + b i)(c + d i) with Karatsuba cross terms; out may alias. */
static void fq2_mul(mpz_t oa, mpz_t ob, const mpz_t a, const mpz_t b,
                    const mpz_t c, const mpz_t d, const mpz_t q, mpz_t *t)
{
    mpz_mul(t[0], a, c);
    mpz_mul(t[1], b, d);
    mpz_add(t[2], a, b);
    mpz_add(t[3], c, d);
    mpz_mul(t[2], t[2], t[3]);
    mpz_sub(t[2], t[2], t[0]);
    mpz_sub(t[2], t[2], t[1]);
    mpz_sub(t[0], t[0], t[1]);
    mpz_mod(oa, t[0], q);
    mpz_mod(ob, t[2], q);
}

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
    size_t row = ((size_t)1 << w) - 1;
    /* z pool: q, acc (2), 4 temporaries, exponents, tables (2 per entry) */
    enum { Q, A0, A1, T0, FIXED = T0 + 4 };
    size_t at_exps = FIXED, at_tables = at_exps + n;
    if (reserve_z(s, at_tables + 2 * n * row) < 0)
        return PyErr_NoMemory();
    mpz_t *z = s->z;
    mpz_ptr q = z[Q], a0 = z[A0], a1 = z[A1];
    mpz_t *t = z + T0, *exps = z + at_exps, *tables = z + at_tables;
    if (load_modulus(q, qobj, s) < 0)
        return NULL;
    for (size_t j = 0; j < n; j++) {
        int is_none;
        if (load_mpz(exps[j], PyList_GET_ITEM(exponents, j), s) < 0
            || load_pair(tables[2 * j * row], tables[2 * j * row + 1],
                         PyList_GET_ITEM(values, j), q, s, &is_none) < 0)
            return NULL;
        if (is_none) {
            PyErr_SetString(PyExc_TypeError, "F_{q^2} values cannot be None");
            return NULL;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    /* Per-base tables of value^d for d in [1, 2^w). */
    for (size_t j = 0; j < n; j++) {
        mpz_t *tab = tables + 2 * j * row;
        for (size_t d = 1; d < row; d++)
            fq2_mul(tab[2 * d], tab[2 * d + 1], tab[2 * d - 2], tab[2 * d - 1],
                    tab[0], tab[1], q, t);
    }
    mpz_set_ui(a0, 1);
    mpz_set_ui(a1, 0);
    for (long position = digits - 1; position >= 0; position--) {
        if (mpz_cmp_ui(a0, 1) != 0 || mpz_sgn(a1) != 0) {
            for (long k = 0; k < w; k++) {
                /* (a - b)(a + b) + 2ab i */
                mpz_sub(t[0], a0, a1);
                mpz_add(t[1], a0, a1);
                mpz_mul(t[2], a0, a1);
                mpz_mul_2exp(t[2], t[2], 1);
                mpz_mul(t[0], t[0], t[1]);
                mpz_mod(a0, t[0], q);
                mpz_mod(a1, t[2], q);
            }
        }
        mp_bitcnt_t shift = (mp_bitcnt_t)position * (mp_bitcnt_t)w;
        for (size_t j = 0; j < n; j++) {
            size_t digit = 0;
            for (long k = w; k-- > 0;)
                digit = (digit << 1) | (size_t)mpz_tstbit(exps[j], shift + (mp_bitcnt_t)k);
            if (digit) {
                mpz_t *entry = tables + 2 * (j * row + digit - 1);
                fq2_mul(a0, a1, a0, a1, entry[0], entry[1], q, t);
            }
        }
    }
    Py_END_ALLOW_THREADS
    return store_pair(a0, a1, s);
}

/* ------------------------------------------------------------------ */

/* A forked child starts with a fresh lock and an empty scratch: the
 * thread that may have held them in the parent does not exist here.
 * (The parent's scratch memory is left behind, once per child.) */
static PyObject *reset_after_fork(PyObject *self, PyObject *unused)
{
    memset(&pool, 0, sizeof pool);
    if ((pool_lock = PyThread_allocate_lock()) == NULL)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

LEND_SCRATCH(affine_multiexp)
LEND_SCRATCH(sample_points)
LEND_SCRATCH(scalar_mul_vector)
LEND_SCRATCH(schedule_chunk)
LEND_SCRATCH(straus_fq2)

static PyMethodDef methods[] = {
    {"affine_multiexp", affine_multiexp, METH_VARARGS,
     "affine_multiexp(q, w, tree_entries, instances) -> list of (x, y) or None"},
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
    "GMP kernels for the lockstep affine multiexp, subgroup sampling, the "
    "Miller-schedule chunk and the F_{q^2} Straus loop.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__repro_kernels(void)
{
    if (pool_lock == NULL && (pool_lock = PyThread_allocate_lock()) == NULL)
        return PyErr_NoMemory();
    return PyModule_Create(&module);
}
