/* The kernels of _kernels.c, written once against a field layer.
 *
 * _kernels.c includes this file once per residue representation, with
 *
 *   FE       the residue type (uint64_t, or GMP's __mpz_struct), and
 *   F(name)  name with the representation's prefix (W_ or Z_),
 *
 * after defining that representation's field F(field) and its
 * operations on residues in [0, q), each taking pointers (the output
 * may alias any input): F(set), F(set_zero), F(one), F(neg), F(mul),
 * F(dot) (a b + c d), F(cross) (a b - c d), F(inv) (0 if not a unit),
 * F(eq), F(is_zero), F(powm) (an mpz_t exponent), F(from_digits), and
 * F(load)/F(store) between ints and residues.  F(open) sets a field up
 * from q, using the first FIELD_SLOTS residues of the pool.
 *
 * The lazy F(lmul), F(ladd) and F(lsub) return a value congruent to
 * the result, which F(reduce) makes canonical.  The word field reduces
 * at once; the mpz_t field defers its mpz_mod, so a chain of them costs
 * one reduction.  A lazy value may enter F(mul), F(dot), F(cross), the
 * lazy operations and F(reduce); everything else takes canonical
 * residues, so equal values compare equal, and every returned value is
 * the canonical residue the Python kernels return.
 *
 * Each kernel brackets its arithmetic with _kernels.c's
 * BEGIN_COMPUTE(work) and END_COMPUTE, work being a rough count of the
 * field multiplications the call will make, from its sizes alone.
 */

typedef struct {
    FE x, y;
    int inf;
} F(point);

/* This representation's residue and point pools, lent with the
 * scratch; they only ever grow. */
static struct {
    FE *z;
    size_t nz;
    F(point) *p;
    size_t np;
} F(pool);

/* Grow the pools to at least nz residues and np points; earlier
 * pointers into them are invalid afterwards. */
static int F(reserve)(size_t nz, size_t np)
{
    if (nz > F(pool).nz) {
        FE *z = realloc(F(pool).z, nz * sizeof *z);
        if (z == NULL)
            return NO_MEMORY;
        for (size_t i = F(pool).nz; i < nz; i++)
            F(init)(&z[i]);
        F(pool).z = z;
        F(pool).nz = nz;
    }
    if (np > F(pool).np) {
        F(point) *p = realloc(F(pool).p, np * sizeof *p);
        if (p == NULL)
            return NO_MEMORY;
        for (size_t i = F(pool).np; i < np; i++) {
            F(init)(&p[i].x);
            F(init)(&p[i].y);
        }
        F(pool).p = p;
        F(pool).np = np;
    }
    return OK;
}

static void F(forget)(void)
{
    memset(&F(pool), 0, sizeof F(pool));
}

/* ------------------------------------------------------------------ */
/* Residues <-> ints                                                   */

static PyObject *F(store_pair)(const F(field) *f, scratch *s, const FE *a,
                               const FE *b)
{
    PyObject *x = F(store)(f, s, a);
    PyObject *y = x == NULL ? NULL : F(store)(f, s, b);
    PyObject *pair = y == NULL ? NULL : PyTuple_Pack(2, x, y);
    Py_XDECREF(x);
    Py_XDECREF(y);
    return pair;
}

/* Points as a list of (x, y) pairs, None for infinity. */
static PyObject *F(store_points)(const F(field) *f, scratch *s,
                                 F(point) *const *pts, size_t n)
{
    PyObject *list = PyList_New((Py_ssize_t)n);
    for (size_t i = 0; list != NULL && i < n; i++) {
        PyObject *item = Py_None;
        if (pts[i]->inf)
            Py_INCREF(item);
        else
            item = F(store_pair)(f, s, &pts[i]->x, &pts[i]->y);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, (Py_ssize_t)i, item);
    }
    return list;
}

/* ``(x, y)`` reduced mod q; returns 0 and sets *is_none for None. */
static int F(load_pair)(const F(field) *f, scratch *s, FE *a, FE *b,
                        PyObject *obj, int *is_none)
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
    if (F(load)(f, s, a, PyTuple_GET_ITEM(obj, 0)) < 0
        || F(load)(f, s, b, PyTuple_GET_ITEM(obj, 1)) < 0)
        return -1;
    return 0;
}

/* Montgomery's trick over vals[0..n): out[k] = 1 / vals[k] mod q with
 * one inversion; out may be vals.  prefix needs n entries; -1 if some
 * value is not a unit. */
static int F(batch_invert)(const F(field) *f, FE *out, FE *vals, size_t n,
                           FE *prefix, FE *acc, FE *t)
{
    if (n == 0)
        return 0;
    F(set)(f, acc, F(one)(f));
    for (size_t k = 0; k < n; k++) {
        F(set)(f, &prefix[k], acc);
        F(mul)(f, acc, acc, &vals[k]);
    }
    if (!F(inv)(f, acc, acc))
        return -1;
    for (size_t k = n; k-- > 0;) {
        F(mul)(f, t, acc, &prefix[k]);
        F(mul)(f, acc, acc, &vals[k]);
        F(set)(f, &out[k], t);
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

/* Six temporaries after the field slots. */
enum { F(ROUND_TEMPS) = FIELD_SLOTS + 6 };

typedef struct {
    const F(field) *f;
    FE *acc, *inv, *t, *u, *slope, *x3;
    FE *prefix;  /* one per element of the widest round */
    size_t *pending;
    F(point) *inf;
} F(rounds);

/* The rounds' temporaries from the pool's z[FIELD_SLOTS..ROUND_TEMPS),
 * prefix from z[ROUND_TEMPS]. */
static F(rounds) F(rounds_on)(const F(field) *f, FE *z, size_t *pending,
                              F(point) *inf)
{
    FE *t = z + FIELD_SLOTS;
    return (F(rounds)){f, t, t + 1, t + 2, t + 3, t + 4, t + 5,
                       z + F(ROUND_TEMPS), pending, inf};
}

static void F(finish)(F(rounds) *c, F(point) *dest, const F(point) *l, const FE *x2)
{
    const F(field) *f = c->f;
    /* x3 = slope^2 - x1 - x2, y3 = slope (x1 - x3) - y1 */
    F(lmul)(f, c->x3, c->slope, c->slope);
    F(lsub)(f, c->x3, c->x3, &l->x);
    F(lsub)(f, c->x3, c->x3, x2);
    F(reduce)(f, c->x3, c->x3);
    F(lsub)(f, c->t, &l->x, c->x3);
    F(lmul)(f, c->t, c->t, c->slope);
    F(lsub)(f, c->t, c->t, &l->y);
    F(reduce)(f, &dest->y, c->t);
    F(set)(f, &dest->x, c->x3);  /* a copy keeps the pool's limbs small */
    dest->inf = 0;
}

/* The tangent's numerator 3 x^2 + 1, lazy; t is scratch. */
static void F(tangent)(const F(field) *f, FE *out, FE *t, const FE *x)
{
    F(lmul)(f, t, x, x);
    F(ladd)(f, out, t, t);
    F(ladd)(f, out, out, t);
    F(ladd)(f, out, out, F(one)(f));
}

/* slope = t / den for the np-th pending element (Montgomery's trick
 * unwound): c->inv holds 1 / (den times the earlier denominators) and
 * c->prefix[np] their product without den; den then leaves c->inv. */
static void F(slope)(F(rounds) *c, size_t np, const FE *t, const FE *den)
{
    const F(field) *f = c->f;
    F(lmul)(f, c->slope, t, c->inv);
    F(lmul)(f, c->slope, c->slope, &c->prefix[np]);
    F(reduce)(f, c->slope, c->slope);
    F(mul)(f, c->inv, c->inv, den);
}

/* lefts[i] + rights[i] for every i, one inversion: curve.batch_add_affine. */
static int F(add_round)(F(rounds) *c, F(point) **out, F(point) *const *lefts,
                        F(point) *const *rights, F(point) *const *dest, size_t n)
{
    const F(field) *f = c->f;
    size_t np = 0;
    F(set)(f, c->acc, F(one)(f));
    for (size_t i = 0; i < n; i++) {
        F(point) *l = lefts[i], *r = rights[i];
        if (l->inf) {
            out[i] = r;
            continue;
        }
        if (r->inf) {
            out[i] = l;
            continue;
        }
        if (!F(eq)(&l->x, &r->x))
            F(lsub)(f, c->t, &r->x, &l->x);
        else if (F(eq)(&l->y, &r->y) && !F(is_zero)(&l->y))
            F(ladd)(f, c->t, &l->y, &l->y);
        else {  /* P + (-P), or a 2-torsion point doubled */
            out[i] = c->inf;
            continue;
        }
        F(set)(f, &c->prefix[np], c->acc);
        c->pending[np++] = i;
        F(mul)(f, c->acc, c->acc, c->t);
    }
    if (np == 0)
        return OK;
    if (!F(inv)(f, c->inv, c->acc))
        return SINGULAR;
    while (np-- > 0) {
        size_t i = c->pending[np];
        F(point) *l = lefts[i], *r = rights[i];
        if (!F(eq)(&l->x, &r->x)) {
            F(lsub)(f, c->t, &r->y, &l->y);
            F(lsub)(f, c->u, &r->x, &l->x);
        } else {
            F(tangent)(f, c->t, c->u, &l->x);
            F(ladd)(f, c->u, &l->y, &l->y);
        }
        F(slope)(c, np, c->t, c->u);
        F(finish)(c, dest[i], l, &r->x);
        out[i] = dest[i];
    }
    return OK;
}

/* 2 in[i] for every i, one inversion: curve.batch_double_affine. */
static int F(double_round)(F(rounds) *c, F(point) **out, F(point) *const *in,
                           F(point) *const *dest, size_t n)
{
    const F(field) *f = c->f;
    size_t np = 0;
    F(set)(f, c->acc, F(one)(f));
    for (size_t i = 0; i < n; i++) {
        F(point) *p = in[i];
        if (p->inf || F(is_zero)(&p->y)) {  /* infinity or 2-torsion */
            out[i] = c->inf;
            continue;
        }
        F(set)(f, &c->prefix[np], c->acc);
        c->pending[np++] = i;
        F(ladd)(f, c->t, &p->y, &p->y);
        F(mul)(f, c->acc, c->acc, c->t);
    }
    if (np == 0)
        return OK;
    if (!F(inv)(f, c->inv, c->acc))
        return SINGULAR;
    while (np-- > 0) {
        size_t i = c->pending[np];
        F(point) *p = in[i];
        F(tangent)(f, c->t, c->x3, &p->x);
        F(ladd)(f, c->u, &p->y, &p->y);
        F(slope)(c, np, c->t, c->u);
        F(finish)(c, dest[i], p, &p->x);
        out[i] = dest[i];
    }
    return OK;
}

/* acc[i] = scalar * bases[i] for every i, acc starting as the bases. */
static int F(scalar_mul_rounds)(F(rounds) *c, F(point) **acc,
                                F(point) *const *bases, F(point) *const *dests,
                                size_t n, mpz_srcptr scalar)
{
    int status = OK;
    for (size_t bit = mpz_sizeinbase(scalar, 2) - 1; status == OK && bit-- > 0;) {
        status |= F(double_round)(c, acc, acc, dests, n);
        if (mpz_tstbit(scalar, bit))
            status |= F(add_round)(c, acc, acc, bases, dests, n);
    }
    return status;
}

static PyObject *F(singular)(void)
{
    PyErr_SetString(PyExc_ZeroDivisionError, "a slope denominator is not invertible");
    return NULL;
}

/* ------------------------------------------------------------------ */
/* affine_multiexp on a layout planned by the entry point              */

/* Where the rounds keep their pointers. */
typedef struct {
    const layout *m;
    F(point) **table_ptrs;  /* per table slot: P, -P, 3P, -3P, ... */
    F(point) **doubles;     /* per term: 2P */
    F(point) **columns;     /* per column slot: an entry to add */
    F(point) **tree_out;    /* per column slot of a slice: a tree output */
    F(point) ***cols;       /* per column of a slice: its live vector */
    size_t *group_first, *group_cols;  /* per position of a slice */
    F(point) **acc;         /* per instance: the Horner accumulator */
    F(point) **lefts, **rights, **dests, **outs;  /* per round element */
    size_t *pending;
} F(plan);

static void F(carve_rounds)(void *arg, carver *c)
{
    F(plan) *r = arg;
    const layout *m = r->m;
    CARVE(r, table_ptrs, m->slots);
    CARVE(r, doubles, m->terms);
    CARVE(r, columns, m->column_slots);
    CARVE(r, tree_out, m->slice_slots);
    CARVE(r, cols, m->ncols);
    CARVE(r, group_first, m->npos);
    CARVE(r, group_cols, m->npos);
    CARVE(r, acc, m->width);
    CARVE(r, lefts, m->widest);
    CARVE(r, rights, m->widest);
    CARVE(r, dests, m->widest);
    CARVE(r, outs, m->widest);
    CARVE(r, pending, m->widest);
}

/* Point pool layout: table slots, then one double per term, one tree
 * output per column slot of the widest slice, one accumulator per
 * instance. */
#define AT_DOUBLES(m) ((m)->slots)
#define AT_TREE(m) (AT_DOUBLES(m) + (m)->terms)
#define AT_ACC(m) (AT_TREE(m) + (m)->slice_slots)
#define POOL_POINTS(m) (AT_ACC(m) + (m)->width)

/* fastops._batch_affine_multiexp on the plan; the bases are already in
 * table slot 0 of each term. */
static int F(run_multiexp)(F(plan) *r, F(rounds) *c, F(point) *pool,
                           size_t tree_entries)
{
    const layout *m = r->m;
    const F(field) *f = c->f;
    int status = OK;
    F(point) *inf = c->inf;

    /* Odd multiples P, 3P, 5P, ... up to each term's largest digit: one
     * doubling round for every 2P, then one addition round per
     * multiple, each across every term of every instance. */
    size_t n = 0, rows = 1;
    for (size_t t = 0; t < m->terms; t++) {
        r->table_ptrs[m->table[t]] = &pool[m->table[t]];
        if (m->multiples[t] > 1) {
            r->lefts[n] = &pool[m->table[t]];
            r->dests[n] = &pool[AT_DOUBLES(m) + t];
            n++;
        }
        if (m->multiples[t] > rows)
            rows = m->multiples[t];
    }
    status |= F(double_round)(c, r->outs, r->lefts, r->dests, n);
    n = 0;
    for (size_t t = 0; t < m->terms; t++)
        if (m->multiples[t] > 1)
            r->doubles[t] = r->outs[n++];
    for (size_t row = 1; status == OK && row < rows; row++) {
        n = 0;
        for (size_t t = 0; t < m->terms; t++) {
            if (m->multiples[t] > row) {
                r->lefts[n] = r->table_ptrs[m->table[t] + 2 * (row - 1)];
                r->rights[n] = r->doubles[t];
                r->dests[n] = &pool[m->table[t] + 2 * row];
                n++;
            }
        }
        status |= F(add_round)(c, r->outs, r->lefts, r->rights, r->dests, n);
        n = 0;
        for (size_t t = 0; t < m->terms; t++)
            if (m->multiples[t] > row)
                r->table_ptrs[m->table[t] + 2 * row] = r->outs[n++];
    }
    /* ... and the negatives -P, -3P, ... beside them. */
    for (size_t t = 0; t < m->terms; t++) {
        for (size_t row = 0; row < m->multiples[t]; row++) {
            size_t slot = m->table[t] + 2 * row;
            F(point) *pos = r->table_ptrs[slot], *neg = &pool[slot + 1];
            if (pos->inf) {
                r->table_ptrs[slot + 1] = inf;
                continue;
            }
            F(set)(f, &neg->x, &pos->x);
            F(neg)(f, &neg->y, &pos->y);
            neg->inf = 0;
            r->table_ptrs[slot + 1] = neg;
        }
    }

    /* Per bit position, the table entries to add as columns over the
     * instances (column k holds each instance's k-th entry there). */
    for (size_t i = 0; i < m->column_slots; i++)
        r->columns[i] = inf;
    for (size_t t = 0; t < m->terms; t++)
        for (size_t e = m->entry_start[t]; e < m->entry_start[t + 1]; e++)
            r->columns[m->col_offset[m->entry_position[e]]
                       + m->entry_column[e] * m->width + m->owner[t]]
                = r->table_ptrs[m->table[t] + m->entry_index[e]];

    /* Each slice of positions has its columns summed by balanced trees
     * (fastops._sum_column_groups): a round adds the column pairs of
     * every position of the slice at once.  Horner then folds the
     * slice's sums in from the top bit down, acc = 2^gap * acc + sum,
     * before the next slice reuses the tree storage. */
    for (size_t i = 0; i < m->width; i++)
        r->acc[i] = inf;
    for (size_t start = 0; status == OK && start < m->npos;) {
        size_t stop = start, entries = 0, ncols = 0, tree_used = 0;
        while (stop < m->npos && entries < tree_entries) {
            size_t pos = m->order[stop];
            entries += m->depth[pos] * m->width;
            r->group_first[stop] = ncols;
            r->group_cols[stop] = m->depth[pos];
            for (size_t col = 0; col < m->depth[pos]; col++)
                r->cols[ncols++] = r->columns + m->col_offset[pos] + col * m->width;
            stop++;
        }
        while (status == OK) {
            n = 0;
            for (size_t gi = start; gi < stop; gi++) {
                F(point) ***group = r->cols + r->group_first[gi];
                for (size_t j = 0; j + 1 < r->group_cols[gi]; j += 2)
                    for (size_t i = 0; i < m->width; i++) {
                        r->lefts[n] = group[j][i];
                        r->rights[n] = group[j + 1][i];
                        r->dests[n] = &pool[AT_TREE(m) + tree_used + n];
                        n++;
                    }
            }
            if (n == 0)
                break;
            F(point) **out = r->tree_out + tree_used;
            tree_used += n;
            status |= F(add_round)(c, out, r->lefts, r->rights, r->dests, n);
            for (size_t gi = start; gi < stop; gi++) {
                F(point) ***group = r->cols + r->group_first[gi];
                size_t pairs = r->group_cols[gi] / 2;
                F(point) **last = group[r->group_cols[gi] - 1];
                for (size_t j = 0; j < pairs; j++, out += m->width)
                    group[j] = out;
                if (r->group_cols[gi] & 1)
                    group[pairs] = last;
                r->group_cols[gi] = (r->group_cols[gi] + 1) / 2;
            }
        }
        for (size_t i = 0; i < m->width; i++)
            r->dests[i] = &pool[AT_ACC(m) + i];
        for (size_t k = start; status == OK && k < stop; k++) {
            if (k > 0)
                for (size_t gap = m->order[k - 1] - m->order[k]; gap > 0; gap--)
                    status |= F(double_round)(c, r->acc, r->acc, r->dests, m->width);
            status |= F(add_round)(c, r->acc, r->acc, r->cols[r->group_first[k]],
                                   r->dests, m->width);
        }
        /* An accumulator that passed a tree sum through is copied out of
         * the tree storage the next slice overwrites.  (An infinity it
         * passed through may be a base given as None.) */
        for (size_t i = 0; i < m->width; i++) {
            F(point) *own = r->dests[i];
            if (r->acc[i]->inf) {
                r->acc[i] = inf;
            } else if (r->acc[i] != own) {
                F(set)(f, &own->x, &r->acc[i]->x);
                F(set)(f, &own->y, &r->acc[i]->y);
                own->inf = 0;
                r->acc[i] = own;
            }
        }
        start = stop;
    }
    if (m->npos > 0)
        for (size_t gap = m->order[m->npos - 1]; status == OK && gap > 0; gap--)
            status |= F(double_round)(c, r->acc, r->acc, r->dests, m->width);
    return status;
}

static PyObject *F(affine_multiexp)(scratch *s, const layout *m, size_t tree_entries,
                                    PyObject *instances)
{
    F(plan) r;
    memset(&r, 0, sizeof r);
    r.m = m;
    /* z pool: field slots, round temporaries, prefix */
    if (carve_all(s, 1, &r, F(carve_rounds)) != OK
        || F(reserve)(F(ROUND_TEMPS) + m->widest, POOL_POINTS(m) + 1) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z;
    F(point) *pool = F(pool).p, *inf = &pool[POOL_POINTS(m)];
    inf->inf = 1;
    F(field) f;
    F(open)(&f, z, s->z[0]);
    for (size_t k = 0, t = 0; k < m->width; k++) {
        PyObject *bases = PyTuple_GET_ITEM(PyList_GET_ITEM(instances, k), 0);
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(bases); j++, t++) {
            F(point) *base = &pool[m->table[t]];
            if (F(load_pair)(&f, s, &base->x, &base->y, PyList_GET_ITEM(bases, j),
                             &base->inf) < 0)
                return NULL;
        }
    }
    F(rounds) c = F(rounds_on)(&f, z, r.pending, inf);
    int status;
    BEGIN_COMPUTE(10 * m->bits * (m->width + m->terms / (m->w + 1)))
    status = F(run_multiexp)(&r, &c, pool, tree_entries);
    END_COMPUTE
    if (status != OK)
        return F(singular)();
    return F(store_points)(&f, s, r.acc, m->width);
}

#undef AT_DOUBLES
#undef AT_TREE
#undef AT_ACC
#undef POOL_POINTS

/* ------------------------------------------------------------------ */
/* scalar_mul_vector: q in s->z[0], the scalar in s->z[1]              */

static PyObject *F(scalar_mul_vector)(scratch *s, PyObject *points)
{
    size_t n = (size_t)PyList_GET_SIZE(points);
    /* z pool: field slots, round temporaries, prefix; points: bases,
     * accumulators, inf */
    if (F(reserve)(F(ROUND_TEMPS) + n, 2 * n + 1) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z;
    F(point) *pool = F(pool).p, *inf = &pool[2 * n];
    inf->inf = 1;
    F(field) f;
    F(open)(&f, z, s->z[0]);
    PyObject *result = NULL;
    F(point) **ptrs = malloc((3 * n + 1) * sizeof *ptrs);
    size_t *pending = malloc((n + 1) * sizeof *pending);
    if (ptrs == NULL || pending == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    F(point) **bases = ptrs, **acc = ptrs + n, **dests = ptrs + 2 * n;
    for (size_t i = 0; i < n; i++) {
        if (F(load_pair)(&f, s, &pool[i].x, &pool[i].y, PyList_GET_ITEM(points, i),
                         &pool[i].inf) < 0)
            goto done;
        bases[i] = acc[i] = &pool[i];
        dests[i] = &pool[n + i];
    }
    F(rounds) c = F(rounds_on)(&f, z, pending, inf);
    int status;
    BEGIN_COMPUTE(15 * n * mpz_sizeinbase(s->z[1], 2))
    status = F(scalar_mul_rounds)(&c, acc, bases, dests, n, s->z[1]);
    END_COMPUTE
    if (status != OK)
        F(singular)();
    else
        result = F(store_points)(&f, s, acc, n);
done:
    free(ptrs);
    free(pending);
    return result;
}

/* ------------------------------------------------------------------ */
/* sample_points: q, h and (q+1)/4 in s->z[0..3)                       */

/* Candidate points into pts[0..count), drawn as the Python loop draws
 * them; q = 3 mod 4, so root = rhs^((q+1)/4) is a square root exactly
 * when rhs is a square.  digits holds ceil(k/32) words. */
static int F(draw_candidates)(const F(field) *f, F(point) *pts, size_t count,
                              word_stream *ws, mpz_srcptr q, mpz_srcptr root,
                              FE *rhs, FE *t, uint32_t *digits)
{
    size_t k = mpz_sizeinbase(q, 2), nw = (k + 31) / 32;
    unsigned shift = (unsigned)((32 - k % 32) % 32);
    for (size_t i = 0; i < count; i++) {
        F(point) *pt = &pts[i];
        for (;;) {
            do {  /* randrange(q) */
                if (ws->n - ws->used < nw)
                    return RAN_OUT;
                for (size_t j = 0; j < nw; j++)
                    digits[j] = next_word(ws);
                digits[nw - 1] >>= shift;
            } while (!F(from_digits)(f, &pt->x, digits, nw));
            /* x^3 + x = (x^2 + 1) x */
            F(lmul)(f, t, &pt->x, &pt->x);
            F(ladd)(f, t, t, F(one)(f));
            F(mul)(f, rhs, t, &pt->x);
            if (F(is_zero)(rhs))
                continue;
            F(powm)(f, &pt->y, rhs, root);
            F(mul)(f, t, &pt->y, &pt->y);
            if (!F(eq)(t, rhs))
                continue;
            if (ws->used == ws->n)
                return RAN_OUT;
            if (next_word(ws) >> 31)  /* getrandbits(1) */
                F(neg)(f, &pt->y, &pt->y);
            pt->inf = 0;
            break;
        }
    }
    return OK;
}

static PyObject *F(sample_points)(scratch *s, size_t n, word_stream *ws)
{
    /* z pool: field slots, round temporaries, rhs, t, prefix; points:
     * candidates, accumulators, inf */
    enum { RHS = F(ROUND_TEMPS), T, PREFIX };
    if (F(reserve)(PREFIX + n, 2 * n + 1) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z;
    F(point) *pool = F(pool).p, *inf = &pool[2 * n];
    inf->inf = 1;
    F(field) f;
    F(open)(&f, z, s->z[0]);
    PyObject *result = NULL;
    F(point) **ptrs = malloc((3 * n + 1) * sizeof *ptrs);
    size_t *pending = malloc((n + 1) * sizeof *pending);
    uint32_t *digits = malloc((mpz_sizeinbase(s->z[0], 2) + 31) / 32 * sizeof *digits);
    if (ptrs == NULL || pending == NULL || digits == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    F(point) **bases = ptrs, **acc = ptrs + n, **dests = ptrs + 2 * n;
    for (size_t i = 0; i < n; i++) {
        bases[i] = acc[i] = &pool[i];
        dests[i] = &pool[n + i];
    }
    /* The prefix follows rhs and t. */
    F(rounds) c = F(rounds_on)(&f, z, pending, inf);
    c.prefix = z + PREFIX;
    int status;
    BEGIN_COMPUTE(n * (2 * mpz_sizeinbase(s->z[0], 2) + mpz_sizeinbase(s->z[1], 2)))
    status = F(draw_candidates)(&f, pool, n, ws, s->z[0], s->z[2], z + RHS, z + T,
                                digits);
    if (status == OK)
        status = F(scalar_mul_rounds)(&c, acc, bases, dests, n, s->z[1]);
    END_COMPUTE
    if (status == RAN_OUT) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (status != OK) {
        F(singular)();
        goto done;
    }
    int identity = 0;
    for (size_t i = 0; i < n; i++)
        identity |= acc[i]->inf;
    PyObject *points = identity ? Py_NewRef(Py_None) : F(store_points)(&f, s, acc, n);
    if (points != NULL)
        result = Py_BuildValue("(Nn)", points, (Py_ssize_t)ws->used);
done:
    free(ptrs);
    free(pending);
    free(digits);
    return result;
}

/* ------------------------------------------------------------------ */
/* miller_schedule: q and p in s->z[0..2)                              */

/* o = 2 j in Jacobian coordinates (curve._jacobian_double), for y and
 * z nonzero; o is not j.  tmp holds 3 residues. */
static void F(jacobian_double)(const F(field) *f, FE *o, const FE *j, FE *tmp)
{
    FE *ysq = &tmp[0], *s = &tmp[1], *m = &tmp[2];
    F(mul)(f, ysq, &j[1], &j[1]);
    F(mul)(f, s, &j[0], ysq);
    F(ladd)(f, s, s, s);
    F(ladd)(f, s, s, s);
    F(reduce)(f, s, s);  /* 4 x y^2 */
    F(mul)(f, &o[2], &j[2], &j[2]);
    F(ladd)(f, m, &j[0], &j[0]);
    F(ladd)(f, m, m, &j[0]);
    F(dot)(f, m, m, &j[0], &o[2], &o[2]);  /* 3 x^2 + z^4 (a = 1) */
    F(lmul)(f, &o[0], m, m);
    F(lsub)(f, &o[0], &o[0], s);
    F(lsub)(f, &o[0], &o[0], s);
    F(reduce)(f, &o[0], &o[0]);
    F(lsub)(f, s, s, &o[0]);
    F(lmul)(f, s, s, m);
    F(lmul)(f, m, ysq, ysq);
    F(ladd)(f, m, m, m);
    F(ladd)(f, m, m, m);
    F(ladd)(f, m, m, m);
    F(lsub)(f, s, s, m);
    F(reduce)(f, &o[1], s);  /* m (s - x3) - 8 y^4 */
    F(mul)(f, &o[2], &j[1], &j[2]);
    F(ladd)(f, &o[2], &o[2], &o[2]);
    F(reduce)(f, &o[2], &o[2]);
}

/* o = j + (px, py) in Jacobian coordinates (curve._jacobian_add_affine),
 * given zz = z^2 and h = px z^2 - x, h nonzero; o is not j.  tmp holds
 * 4 residues. */
static void F(jacobian_add)(const F(field) *f, FE *o, const FE *j, const FE *py,
                            const FE *zz, const FE *h, FE *tmp)
{
    FE *r = &tmp[0], *hh = &tmp[1], *hhh = &tmp[2], *v = &tmp[3];
    F(mul)(f, r, zz, &j[2]);
    F(mul)(f, r, r, py);
    F(lsub)(f, r, r, &j[1]);
    F(reduce)(f, r, r);  /* py z^3 - y */
    F(mul)(f, hh, h, h);
    F(mul)(f, hhh, h, hh);
    F(mul)(f, v, &j[0], hh);
    F(lmul)(f, &o[0], r, r);
    F(lsub)(f, &o[0], &o[0], hhh);
    F(lsub)(f, &o[0], &o[0], v);
    F(lsub)(f, &o[0], &o[0], v);
    F(reduce)(f, &o[0], &o[0]);
    F(lsub)(f, v, v, &o[0]);
    F(lmul)(f, v, v, r);
    F(lmul)(f, hh, &j[1], hhh);
    F(lsub)(f, v, v, hh);
    F(reduce)(f, &o[1], v);  /* r (v - x3) - y hhh */
    F(mul)(f, &o[2], &j[2], h);
}

/* The Miller loop of P = (pt[0], pt[1]) over the bits of p below the
 * top one, as PairingPrecomp builds it: T walks in Jacobian form, each
 * doubling and addition records the T it starts from (3 residues each
 * in rec, its kind in kinds), and an addition that meets T = -P is
 * eliminated, which ends the walk.  Returns the number of records, or
 * -1 where the Python build leaves the regular case: a doubling of a T
 * with y = 0 or z = 0, or an addition with T = P. */
static long F(miller_walk)(const F(field) *f, mpz_srcptr p, const FE *pt, FE *jac,
                           FE *rec, unsigned char *kinds, FE *tmp)
{
    size_t bits = mpz_sizeinbase(p, 2), n = 0;
    F(set)(f, &jac[0], &pt[0]);
    F(set)(f, &jac[1], &pt[1]);
    F(set)(f, &jac[2], F(one)(f));
    int eliminated = 0;
    for (size_t bit = bits - 1, k = 0; bit-- > 0; k++) {
        kinds[k] = 0;
        if (eliminated)
            continue;
        if (F(is_zero)(&jac[1]) || F(is_zero)(&jac[2]))
            return -1;
        FE *from = &rec[3 * n++];
        for (int c = 0; c < 3; c++)
            F(set)(f, &from[c], &jac[c]);
        F(jacobian_double)(f, jac, from, tmp);
        kinds[k] = 1;
        if (!mpz_tstbit(p, bit))
            continue;
        FE *zz = &tmp[4], *h = &tmp[5];
        F(mul)(f, zz, &jac[2], &jac[2]);
        F(mul)(f, h, &pt[0], zz);
        F(lsub)(f, h, h, &jac[0]);
        F(reduce)(f, h, h);
        if (F(is_zero)(h)) {
            /* T = -P: the chord is vertical, lies in F_q, eliminated. */
            F(mul)(f, &tmp[0], zz, &jac[2]);
            F(mul)(f, &tmp[0], &tmp[0], &pt[1]);
            F(ladd)(f, &tmp[0], &tmp[0], &jac[1]);
            F(reduce)(f, &tmp[0], &tmp[0]);
            if (!F(is_zero)(&tmp[0]))
                return -1;
            eliminated = 1;
            continue;
        }
        from = &rec[3 * n++];
        for (int c = 0; c < 3; c++)
            F(set)(f, &from[c], &jac[c]);
        F(jacobian_add)(f, jac, from, &pt[1], zz, h, tmp);
        kinds[k] |= 2;
    }
    return (long)n;
}

/* The records' line coefficients, in place: each (x, y, z) becomes
 * (slope, offset, -) of the line through the affine T it holds, the
 * tangent for a doubling and the chord to P for an addition.  Two
 * batched inversions, the z values' and the slope denominators'; -1 if
 * either meets a value that is not a unit. */
static int F(schedule_lines)(const F(field) *f, const FE *pt, FE *rec, size_t n,
                             const unsigned char *kinds, size_t nsteps, FE *prefix,
                             FE *tmp)
{
    FE *den = prefix + n;  /* n more residues */
    for (size_t i = 0; i < n; i++)
        F(set)(f, &den[i], &rec[3 * i + 2]);
    if (F(batch_invert)(f, den, den, n, prefix, &tmp[0], &tmp[1]) < 0)
        return -1;
    for (size_t i = 0, k = 0; k < nsteps; k++) {
        for (int part = 0; part < 2; part++) {
            if (!(kinds[k] >> part & 1))
                continue;
            FE *x = &rec[3 * i], *y = x + 1;
            F(mul)(f, &tmp[0], &den[i], &den[i]);
            F(mul)(f, x, x, &tmp[0]);
            F(mul)(f, &tmp[0], &tmp[0], &den[i]);
            F(mul)(f, y, y, &tmp[0]);
            if (part == 0)
                F(ladd)(f, &den[i], y, y);  /* 2 y */
            else
                F(lsub)(f, &den[i], &pt[0], x);  /* px - x */
            F(reduce)(f, &den[i], &den[i]);
            i++;
        }
    }
    if (F(batch_invert)(f, den, den, n, prefix, &tmp[0], &tmp[1]) < 0)
        return -1;
    for (size_t i = 0, k = 0; k < nsteps; k++) {
        for (int part = 0; part < 2; part++) {
            if (!(kinds[k] >> part & 1))
                continue;
            FE *x = &rec[3 * i], *y = x + 1, *slope = x + 2;
            if (part == 0)
                F(tangent)(f, &tmp[0], &tmp[1], x);  /* 3 x^2 + 1 */
            else
                F(lsub)(f, &tmp[0], &pt[1], y);  /* py - y */
            F(mul)(f, slope, &tmp[0], &den[i]);
            F(lmul)(f, &tmp[0], slope, x);
            F(lsub)(f, &tmp[0], y, &tmp[0]);
            F(reduce)(f, y, &tmp[0]);  /* y - slope x */
            F(set)(f, x, slope);
            i++;
        }
    }
    return 0;
}

/* The schedule as a list of (doubling line, addition line) pairs, each
 * a (slope, offset) pair or None. */
static PyObject *F(store_schedule)(const F(field) *f, scratch *s, const FE *rec,
                                   const unsigned char *kinds, size_t nsteps)
{
    PyObject *result = PyList_New((Py_ssize_t)nsteps);
    for (size_t i = 0, k = 0; result != NULL && k < nsteps; k++) {
        PyObject *lines[2];
        for (int part = 0; part < 2; part++) {
            if (kinds[k] >> part & 1) {
                lines[part] = F(store_pair)(f, s, &rec[3 * i], &rec[3 * i + 1]);
                i++;
            } else {
                lines[part] = Py_NewRef(Py_None);
            }
        }
        PyObject *step = lines[0] && lines[1] ? PyTuple_Pack(2, lines[0], lines[1]) : NULL;
        Py_XDECREF(lines[0]);
        Py_XDECREF(lines[1]);
        if (step == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, (Py_ssize_t)k, step);
    }
    return result;
}

static PyObject *F(miller_schedule)(scratch *s, PyObject *point)
{
    mpz_srcptr p = s->z[1];
    size_t nsteps = mpz_sizeinbase(p, 2) - 1, nrec = 2 * nsteps;
    /* z pool: field slots, 6 temporaries, P, T, then 3 per record, and
     * 2 per record for the inversions */
    enum { TMP = FIELD_SLOTS, PT = TMP + 6, JAC = PT + 2, REC = JAC + 3 };
    if (F(reserve)(REC + 5 * nrec, 0) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z, *rec = z + REC;
    F(field) field;
    const F(field) *f = &field;
    F(open)(&field, z, s->z[0]);
    int is_none;
    if (F(load_pair)(f, s, &z[PT], &z[PT + 1], point, &is_none) < 0)
        return NULL;
    if (is_none)
        return PyList_New(0);
    unsigned char *kinds = malloc(nsteps + 1);  /* bit 0 doubling, 1 addition */
    if (kinds == NULL)
        return PyErr_NoMemory();
    long n;
    BEGIN_COMPUTE(20 * nsteps)
    n = F(miller_walk)(f, p, &z[PT], &z[JAC], rec, kinds, &z[TMP]);
    if (n >= 0
        && F(schedule_lines)(f, &z[PT], rec, (size_t)n, kinds, nsteps,
                             rec + 3 * nrec, &z[TMP]) < 0)
        n = -1;
    END_COMPUTE
    PyObject *result = n < 0 ? Py_NewRef(Py_None)
                             : F(store_schedule)(f, s, rec, kinds, nsteps);
    free(kinds);
    return result;
}

/* ------------------------------------------------------------------ */
/* schedule_chunk: q and h in s->z[0..2)                               */

static PyObject *F(schedule_chunk)(scratch *s, PyObject *steps, PyObject *xys)
{
    size_t nsteps = (size_t)PyList_GET_SIZE(steps);
    size_t n = (size_t)PyList_GET_SIZE(xys);
    mpz_srcptr h = s->z[1];
    /* z pool: field slots, 8 temporaries, 4 coefficients per step, then
     * per point x, y (later a, b), 1/y (later 1/N), prefix */
    enum { T0 = FIELD_SLOTS, FIXED = T0 + 8 };
    size_t at_coeffs = FIXED, at_points = at_coeffs + 4 * nsteps;
    if (F(reserve)(at_points + 4 * n + 1, 0) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z;
    FE *coeffs = z + at_coeffs;
    FE *xs = z + at_points, *ys = xs + n, *invs = ys + n, *prefix = invs + n;
    F(field) field;
    const F(field) *f = &field;
    F(open)(&field, z, s->z[0]);
    PyObject *result = NULL;
    unsigned char *kinds = malloc(nsteps + 1);  /* bit 0 doubling, 1 addition */
    size_t *live = malloc((n + 1) * sizeof(size_t));
    if (kinds == NULL || live == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (size_t k = 0; k < nsteps; k++) {
        PyObject *step = PyList_GET_ITEM(steps, k);
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 2) {
            PyErr_SetString(PyExc_TypeError, "schedule steps must be pairs");
            goto done;
        }
        kinds[k] = 0;
        for (int part = 0; part < 2; part++) {
            int is_none;
            if (F(load_pair)(f, s, &coeffs[4 * k + 2 * part],
                             &coeffs[4 * k + 2 * part + 1],
                             PyTuple_GET_ITEM(step, part), &is_none) < 0)
                goto done;
            if (!is_none)
                kinds[k] |= (unsigned char)(1 << part);
        }
    }
    /* A point at infinity, or y_Q = 0 (every line lies in F_q): 1. */
    size_t nlive = 0;
    for (size_t k = 0; k < n; k++) {
        int is_none;
        if (F(load_pair)(f, s, &xs[nlive], &ys[nlive], PyList_GET_ITEM(xys, k),
                         &is_none) < 0)
            goto done;
        if (!is_none && !F(is_zero)(&ys[nlive]))
            live[nlive++] = k;
    }

    int failed;
    BEGIN_COMPUTE(3 * nlive * nsteps)
    FE *a = z + T0, *b = a + 1, *s0 = a + 2, *s1 = a + 3, *c = a + 4;
    FE *t = a + 5, *u = a + 6, *v = a + 7;
    failed = F(batch_invert)(f, invs, ys, nlive, prefix, a, b);
    for (size_t k = 0; !failed && k < nlive; k++) {
        /* Lines scaled by -1/y_Q are c + i with
         * c = slope * (x_Q / y_Q) + offset * (-1 / y_Q). */
        F(mul)(f, u, &xs[k], &invs[k]);
        F(neg)(f, v, &invs[k]);
        F(set)(f, a, F(one)(f));
        F(set_zero)(f, b);
        for (size_t j = 0; j < nsteps; j++) {
            const FE *step = coeffs + 4 * j;
            /* f^2 = (a - b)(a + b) + 2ab i, lazy until the line */
            F(lsub)(f, t, a, b);
            F(ladd)(f, s0, a, b);
            F(lmul)(f, s0, s0, t);
            F(lmul)(f, s1, a, b);
            F(ladd)(f, s1, s1, s1);
            if (kinds[j] & 1) {
                /* (s0 + s1 i)(c + i) */
                F(dot)(f, c, &step[0], u, &step[1], v);
                F(lmul)(f, a, s0, c);
                F(lsub)(f, a, a, s1);
                F(reduce)(f, a, a);
                F(lmul)(f, b, s1, c);
                F(ladd)(f, b, b, s0);
                F(reduce)(f, b, b);
            } else {
                F(reduce)(f, a, s0);
                F(reduce)(f, b, s1);
            }
            if (kinds[j] & 2) {
                F(dot)(f, c, &step[2], u, &step[3], v);
                F(lmul)(f, t, a, c);
                F(lsub)(f, t, t, b);
                F(lmul)(f, b, b, c);
                F(ladd)(f, b, b, a);
                F(reduce)(f, b, b);
                F(reduce)(f, a, t);
            }
        }
        F(set)(f, &xs[k], a);
        F(set)(f, &ys[k], b);
        /* the norm a^2 + b^2, inverted below with the others' */
        F(dot)(f, &invs[k], a, a, b, b);
    }
    if (!failed)
        failed = F(batch_invert)(f, invs, invs, nlive, prefix, a, b);
    /* Final exponentiation (q - 1) h: f^(q-1) = conj(f)^2 / N(f), then
     * h by squaring the unitary result as (2 r0^2 - 1) + 2 r0 r1 i. */
    size_t hbits = mpz_sgn(h) > 0 ? mpz_sizeinbase(h, 2) : 1;
    for (size_t k = 0; !failed && k < nlive; k++) {
        FE *x0 = s0, *x1 = s1, *r0 = &xs[k], *r1 = &ys[k];
        F(lsub)(f, t, r0, r1);
        F(ladd)(f, x0, r0, r1);
        F(lmul)(f, x0, x0, t);
        F(mul)(f, x0, x0, &invs[k]);
        F(lmul)(f, x1, r0, r1);
        F(ladd)(f, x1, x1, x1);
        F(mul)(f, x1, x1, &invs[k]);
        F(neg)(f, x1, x1);
        F(set)(f, r0, x0);
        F(set)(f, r1, x1);
        for (size_t bit = hbits - 1; bit-- > 0;) {
            F(lmul)(f, t, r0, r1);
            F(ladd)(f, t, t, t);
            F(reduce)(f, r1, t);
            F(lmul)(f, r0, r0, r0);
            F(ladd)(f, r0, r0, r0);
            F(lsub)(f, r0, r0, F(one)(f));
            F(reduce)(f, r0, r0);
            if (mpz_tstbit(h, bit)) {
                F(cross)(f, t, r0, x0, r1, x1);
                F(dot)(f, u, r0, x1, r1, x0);
                F(set)(f, r0, t);
                F(set)(f, r1, u);
            }
        }
    }
    END_COMPUTE
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
            item = F(store_pair)(f, s, &xs[j], &ys[j]);
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
/* straus_fq2: q in s->z[0], room for the exponents in s->z[1..n]      */

/* (a + b i)(c + d i) = (ac - bd) + (ad + bc) i; out may alias. */
static void F(fq2_mul)(const F(field) *f, FE *oa, FE *ob, const FE *a, const FE *b,
                       const FE *c, const FE *d, FE *t)
{
    F(cross)(f, t, a, c, b, d);
    F(dot)(f, ob, a, d, b, c);
    F(set)(f, oa, t);
}

static PyObject *F(straus_fq2)(scratch *s, PyObject *values, PyObject *exponents,
                               size_t w, long digits)
{
    size_t n = (size_t)PyList_GET_SIZE(values);
    size_t row = ((size_t)1 << w) - 1;
    /* z pool: field slots, acc (2), 3 temporaries, tables (2 per entry) */
    enum { A0 = FIELD_SLOTS, A1, T0, TABLES = T0 + 3 };
    if (F(reserve)(TABLES + 2 * n * row, 0) != OK)
        return PyErr_NoMemory();
    FE *z = F(pool).z;
    FE *a0 = z + A0, *a1 = z + A1, *t = z + T0, *tables = z + TABLES;
    mpz_t *exps = s->z + 1;
    F(field) field;
    const F(field) *f = &field;
    F(open)(&field, z, s->z[0]);
    for (size_t j = 0; j < n; j++) {
        int is_none;
        if (load_mpz(exps[j], PyList_GET_ITEM(exponents, j), s) < 0
            || F(load_pair)(f, s, &tables[2 * j * row], &tables[2 * j * row + 1],
                            PyList_GET_ITEM(values, j), &is_none) < 0)
            return NULL;
        if (is_none) {
            PyErr_SetString(PyExc_TypeError, "F_{q^2} values cannot be None");
            return NULL;
        }
    }
    BEGIN_COMPUTE(2 * (n * row + (size_t)digits * (w + n)))
    /* Per-base tables of value^d for d in [1, 2^w). */
    for (size_t j = 0; j < n; j++) {
        FE *tab = tables + 2 * j * row;
        for (size_t d = 1; d < row; d++)
            F(fq2_mul)(f, &tab[2 * d], &tab[2 * d + 1], &tab[2 * d - 2],
                       &tab[2 * d - 1], &tab[0], &tab[1], t);
    }
    F(set)(f, a0, F(one)(f));
    F(set_zero)(f, a1);
    for (long position = digits - 1; position >= 0; position--) {
        if (!F(eq)(a0, F(one)(f)) || !F(is_zero)(a1)) {
            for (size_t k = 0; k < w; k++) {
                /* (a - b)(a + b) + 2ab i */
                F(lsub)(f, &t[0], a0, a1);
                F(ladd)(f, &t[1], a0, a1);
                F(lmul)(f, &t[2], a0, a1);
                F(ladd)(f, &t[2], &t[2], &t[2]);
                F(mul)(f, a0, &t[0], &t[1]);
                F(reduce)(f, a1, &t[2]);
            }
        }
        mp_bitcnt_t shift = (mp_bitcnt_t)position * (mp_bitcnt_t)w;
        for (size_t j = 0; j < n; j++) {
            size_t digit = 0;
            for (size_t k = w; k-- > 0;)
                digit = (digit << 1) | (size_t)mpz_tstbit(exps[j], shift + (mp_bitcnt_t)k);
            if (digit) {
                FE *entry = tables + 2 * (j * row + digit - 1);
                F(fq2_mul)(f, a0, a1, a0, a1, &entry[0], &entry[1], t);
            }
        }
    }
    END_COMPUTE
    return F(store_pair)(f, s, a0, a1);
}
