/* poolgp's per-node loops as a CPython extension module, built and loaded by _kernel.py.

   The numbers that genome.py owns come in as -D macros from _kernel.defines():
   CONSTANTS_LIST (the constant table), CROSSOVER_ATTEMPTS and ON_STACK. Opcodes are
   numbered as in genome.py. The interpreter's stack holds pointers to rows of n values,
   and the top one is a, as in _interpret; terminals are never copied. A complete encoding
   of length cells holds at most cap = (length + 1) / 2 values at once, so a push past cap
   is an incomplete one. Built at -O3 with -ffp-contract=off: no fused a * b + c, so every
   result keeps numpy's bits. Only Python's headers are needed: every argument but draw's
   state and the integers is a buffer, and evaluate returns its values in a small object of
   this module's own that exports them, so loading the module imports no numpy. Every typed
   argument goes through read_buffer, which takes a buffer only where it is aligned,
   C-contiguous and of exactly one format and raises TypeError for anything else, so no
   function reads a Python container item by item. An exported array.array refuses to
   resize, so a finalizer that a new object starts cannot shrink what is left to read; it
   can still write to it, so draw copies its fitness and plan its parents into C memory
   before either writes an output or builds an object. */
#include <Python.h>
#include <stdint.h>
#if !defined(CONSTANTS_LIST) || !defined(CROSSOVER_ATTEMPTS) || !defined(ON_STACK)
#error "build with the -D flags of poolgp._kernel.defines()"
#endif
enum { ADD, SUB, MUL, DIV, VAR_X, CONST_BASE };
static const double CONSTANTS[] = { CONSTANTS_LIST };
#define NCONST ((int)(sizeof CONSTANTS / sizeof *CONSTANTS))
#define END (CONST_BASE + NCONST)
#define POINTS_PER_CHILD (2 * CROSSOVER_ATTEMPTS)  /* a mum and a dad word per attempt */

/* A cell of run()'s work area: one stack entry, or one double of a row */
union cell {
    const double *row;
    double value;
};
_Static_assert(sizeof(union cell) == sizeof(double), "rows of cells are rows of doubles");

/* 0, with the root's n values in out, or an ERRORS status. The stack holds pointers to
   rows of n doubles: x itself, a constant's row, or the result row of its own depth. So a
   terminal pushes its row from one table and copies nothing, and a function node writes
   a op b into the row of b, the deeper operand. The work area is cap stack entries, then
   cap - 1 result rows and a row per constant, each handed out and filled on the
   constant's first use in the call: on the C stack up to ON_STACK cells, else from
   malloc. Function nodes, the common case, are told apart first; each picks its opcode
   once and runs one plain loop over the n values. */
static int run(const unsigned char *code, Py_ssize_t length, const double *x, Py_ssize_t n,
               double *out)
{
    union cell local[ON_STACK], *area = local;
    const double *row[END] = { [VAR_X] = x }, *a, *b;  /* each terminal's row, once known */
    double *rows, *next, *r;
    Py_ssize_t cap = (length + 1) / 2, count = cap - 1 + NCONST, depth = 0, i, j;
    size_t most = (size_t)-1 / 2 / sizeof *area;  /* cells that malloc may be asked for */
    int status = 0;
    if (length < 1)
        return 3;
    if ((size_t)cap > most || (size_t)n > (most - (size_t)cap) / (size_t)count
        || (cap + count * n > ON_STACK
            && !(area = malloc(sizeof *area * (size_t)(cap + count * n)))))
        return 4;
    rows = &area[cap].value, next = rows + (cap - 1) * n;
    for (i = length - 1; i >= 0; i--) {
        int op = code[i];
        if (op < VAR_X) {
            if (depth < 2) {
                status = 2;
                break;
            }
            a = area[--depth].row, b = area[depth - 1].row;
            area[depth - 1].row = r = rows + (depth - 1) * n;
            switch (op) {
            case ADD: for (j = 0; j < n; j++) r[j] = a[j] + b[j]; break;
            case SUB: for (j = 0; j < n; j++) r[j] = a[j] - b[j]; break;
            case MUL: for (j = 0; j < n; j++) r[j] = a[j] * b[j]; break;
            default: for (j = 0; j < n; j++) r[j] = b[j] != 0.0 ? a[j] / b[j] : 1.0;
            }
        }
        else if (op >= END || depth == cap) {  /* past the last constant, or a push past cap */
            status = op >= END ? 1 : 3;
            break;
        }
        else {
            if (!row[op]) {  /* a constant's first use; or x's, where n = 0 lets it be NULL */
                for (r = next, j = 0; j < n; j++)
                    r[j] = CONSTANTS[op - CONST_BASE];
                row[op] = r, next += n;
            }
            area[depth++].row = row[op];
        }
    }
    if (!status && depth == 1)
        memcpy(out, area[0].row, sizeof(double) * (size_t)n);
    if (area != local)
        free(area);
    return status ? status : depth == 1 ? 0 : 3;
}

/* The row of doubles that evaluate returns: it exports them as one writable, C-contiguous
   buffer of format "d", which memoryview() and numpy read. The cheapest owner of fresh
   doubles: no numpy array, and no memoryview built on every call. */
typedef struct {
    PyObject_VAR_HEAD
    double value[];
} Doubles;

static int doubles_getbuffer(PyObject *self, Py_buffer *view, int flags)
{
    view->obj = Py_NewRef(self);
    view->buf = ((Doubles *)self)->value;
    view->len = Py_SIZE(self) * (Py_ssize_t)sizeof(double);
    view->readonly = 0;
    view->itemsize = sizeof(double);
    view->format = flags & PyBUF_FORMAT ? "d" : NULL;
    view->ndim = 1;
    view->shape = flags & PyBUF_ND ? &((PyVarObject *)self)->ob_size : NULL;
    view->strides = (flags & PyBUF_STRIDES) == PyBUF_STRIDES ? &view->itemsize : NULL;
    view->suboffsets = NULL;
    view->internal = NULL;
    return 0;
}

static PyBufferProcs doubles_buffer = { doubles_getbuffer, NULL };
static PyTypeObject DoublesType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "poolgp_kernel.doubles",
    .tp_basicsize = sizeof(Doubles),
    .tp_itemsize = sizeof(double),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_as_buffer = &doubles_buffer,
};

/* 0 with obj's buffer held in view where it is an aligned, C-contiguous run of items of
   format and size itemsize, of any shape, and writable where asked; else -1 with nothing
   held: TypeError naming the caller who where obj has no buffer or another one, or the
   exporter's exception. An empty buffer needs no alignment: an empty array.array exports a
   static byte. The only place that asks an exporter for its format. */
static int read_buffer(PyObject *obj, Py_buffer *view, const char *format, Py_ssize_t itemsize,
                       int writable, const char *who)
{
    if (PyObject_CheckBuffer(obj)) {
        if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO))
            return -1;
        if (view->format && !strcmp(view->format, format) && view->itemsize == itemsize
            && !(writable && view->readonly) && PyBuffer_IsContiguous(view, 'C')
            && (!view->len || !((uintptr_t)view->buf % (uintptr_t)itemsize)))
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Format(PyExc_TypeError, "%s takes aligned, C-contiguous%s buffers of format '%s'",
                 who, writable ? ", writable" : "", format);
    return -1;
}

/* evaluate(code, length, x) -> the root's values over x's n doubles, in a new row of n
   doubles, or an ERRORS status. TypeError unless read_buffer takes x as "d". A length
   outside the code buffer is status 5, however far outside. */
static PyObject *evaluate(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer c = { 0 }, x = { 0 };
    PyObject *out = NULL;
    Py_ssize_t length;
    int status = 5;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "evaluate takes 3 arguments");
    if ((length = PyNumber_AsSsize_t(args[1], NULL)) == -1 && PyErr_Occurred())
        return NULL;
    if (read_buffer(args[2], &x, "d", sizeof(double), 0, "evaluate"))
        return NULL;
    if (!PyObject_GetBuffer(args[0], &c, PyBUF_SIMPLE) && length >= 0 && length <= c.len
        && (out = (PyObject *)PyObject_NewVar(Doubles, &DoublesType,
                                              x.len / (Py_ssize_t)sizeof(double)))
        && (status = run(c.buf, length, x.buf, Py_SIZE(out), ((Doubles *)out)->value)))
        Py_CLEAR(out);
    PyBuffer_Release(&c), PyBuffer_Release(&x);
    if (out || PyErr_Occurred())
        return out;
    return PyLong_FromLong(status);
}

/* one past the subtree rooted at i, by an arity walk over code's first len cells, or -1
   where the walk leaves them */
static Py_ssize_t walk(const unsigned char *code, Py_ssize_t i, Py_ssize_t len)
{
    Py_ssize_t need = 1;
    for (; need && i < len; i++)
        need += code[i] < VAR_X ? 1 : -1;
    return need ? -1 : i;
}

/* node (u * n) >> 32 of n nodes, split so that no product passes 64 bits */
static Py_ssize_t pick(uint32_t u, Py_ssize_t n)
{
    return (Py_ssize_t)(u * ((uint64_t)n >> 32) + ((u * ((uint64_t)n & UINT32_MAX)) >> 32));
}

/* crossover(mum, mum_len, dad, dad_len, child, capacity, points) -> the child's length:
   genome.python_crossover, to the same bytes and the same exception classes. Attempt i
   swaps mum's subtree at node pick(points[2i], mum_len) for dad's at pick(points[2i + 1],
   dad_len) if the offspring fits in capacity cells; after CROSSOVER_ATTEMPTS the child is
   a copy of mum. TypeError unless read_buffer takes points as "I"; ValueError unless
   1 <= mum_len <= len(mum), 1 <= dad_len <= len(dad), mum_len <= capacity <= len(child)
   and points holds POINTS_PER_CHILD words; IndexError where a walk leaves its parent's
   length. So child is never written past capacity, and the copies run in Python's order,
   as memmove, for a child that is a parent too. */
static PyObject *crossover(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer m = { 0 }, d = { 0 }, c = { 0 }, p = { 0 };
    Py_ssize_t ml, dl, cap, mp, dp, me, de, len = -1;
    uint32_t w[POINTS_PER_CHILD];
    int i;
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "crossover takes 7 arguments");
    if (((ml = PyNumber_AsSsize_t(args[1], NULL)) != -1 || !PyErr_Occurred())
        && ((dl = PyNumber_AsSsize_t(args[3], NULL)) != -1 || !PyErr_Occurred())
        && ((cap = PyNumber_AsSsize_t(args[5], NULL)) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &m, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[2], &d, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[4], &c, PyBUF_WRITABLE)
        && !read_buffer(args[6], &p, "I", sizeof *w, 0, "crossover")) {
        const unsigned char *mum = m.buf, *dad = d.buf;
        unsigned char *out = c.buf;
        if (ml < 1 || ml > m.len || dl < 1 || dl > d.len || cap < ml || cap > c.len
            || p.len < (Py_ssize_t)sizeof w)
            PyErr_SetString(PyExc_ValueError, "crossover: a length, the capacity or the "
                                              "points out of range");
        else {
            memcpy(w, p.buf, sizeof w);
            for (i = 0; i < POINTS_PER_CHILD; i += 2) {
                mp = pick(w[i], ml), dp = pick(w[i + 1], dl);
                if ((me = walk(mum, mp, ml)) < 0 || (de = walk(dad, dp, dl)) < 0) {
                    PyErr_SetString(PyExc_IndexError, "crossover walked out of a parent");
                    break;
                }
                if ((len = ml - (me - mp) + (de - dp)) <= cap) {
                    memmove(out, mum, (size_t)mp);
                    memmove(out + mp, dad + dp, (size_t)(de - dp));
                    memmove(out + mp + de - dp, mum + me, (size_t)(ml - me));
                    break;
                }
            }
            if (i == POINTS_PER_CHILD)
                memmove(out, mum, (size_t)(len = ml));
        }
    }
    PyBuffer_Release(&m), PyBuffer_Release(&d), PyBuffer_Release(&c), PyBuffer_Release(&p);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(len);
}

/* CPython's Mersenne Twister (Modules/_randommodule.c; M. Matsumoto and T. Nishimura, ACM
   TOMACS 1998): the state is the 624 words of random.Random.getstate()[1], then the index of
   the next word to temper, where 624 asks for a twist first. */
enum { MT_N = 624, MT_M = 397 };

/* the stream of a state, a block at a time: word[i] is mt[i] tempered, for i from index on */
struct stream {
    uint32_t mt[MT_N], word[MT_N];
    Py_ssize_t index;
};

/* word[i] for i from index on: CPython's tempering of mt[i] */
static void temper(struct stream *s)
{
    Py_ssize_t i;
    for (i = s->index; i < MT_N; i++) {
        uint32_t y = s->mt[i];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        s->word[i] = y ^ (y >> 18);
    }
}

/* the next block: CPython's twist of all of mt (genrand_uint32), then every word tempered */
static void twist(struct stream *s)
{
    static const uint32_t mag01[2] = { 0x0U, 0x9908b0dfU };
    uint32_t *mt = s->mt, y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    s->index = 0;
    temper(s);
}

/* the next word of the stream, twisting a new block where the last one is used up */
static inline uint32_t next_word(struct stream *s)
{
    if (s->index >= MT_N)
        twist(s);
    return s->word[s->index++];
}

/* state's 624 words into mt, and its index; -1 with ValueError unless state is a tuple of
   625 ints, each word below 2**32 and the index from 0 to 624 */
static Py_ssize_t read_state(PyObject *state, uint32_t *mt)
{
    unsigned long long v = 0;
    Py_ssize_t i = 0;
    if (PyTuple_Check(state) && PyTuple_GET_SIZE(state) == MT_N + 1)
        for (; i <= MT_N; i++) {
            PyObject *item = PyTuple_GET_ITEM(state, i);
            if (!PyLong_Check(item)
                || ((v = PyLong_AsUnsignedLongLong(item)) == (unsigned long long)-1
                    && PyErr_Occurred())
                || v > (i < MT_N ? UINT32_MAX : MT_N))
                break;
            if (i < MT_N)
                mt[i] = (uint32_t)v;
        }
    if (i <= MT_N) {  /* stopped short, or never started */
        PyErr_Clear();  /* a negative or huge int: OverflowError, refused as a bad state */
        PyErr_SetString(PyExc_ValueError, "draw: the state is not 624 words and an index");
        return -1;
    }
    return (Py_ssize_t)v;
}

/* s's state as random.Random.getstate()[1]: its 624 words, then its index */
static PyObject *write_state(const struct stream *s)
{
    PyObject *state = PyTuple_New(MT_N + 1), *item;
    Py_ssize_t i;
    for (i = 0; state && i <= MT_N; i++) {
        if (!(item = PyLong_FromSsize_t(i < MT_N ? (Py_ssize_t)s->mt[i] : s->index)))
            Py_CLEAR(state);
        else
            PyTuple_SET_ITEM(state, i, item);
    }
    return state;
}

/* member (u * m) >> 32 of m, for the word u */
#define ENTRANT(u, m) ((Py_ssize_t)(((uint64_t)(u) * (uint64_t)(m)) >> 32))

/* draw(state, fitness, k, mums, dads, points) -> the state after: continues the stream of
   state (see read_state). Tournament r of 2m, for the m doubles of fitness, is the best of
   the k entrants that the next k words draw, word u drawing member (u * m) >> 32; its winner
   goes to mums[r / 2] for even r, else to dads[r / 2]. The lowest fitness wins, NaN ranking
   as inf, and ties go to the lowest index. Then points takes the next POINTS_PER_CHILD * m
   words. So it reads the words that random.Random.randbytes blocks of whole words would
   give, in their order, tempering a block of MT_N after each twist. fitness is copied into
   C memory before anything is written. TypeError unless read_buffer takes fitness as "d",
   and mums and dads as writable "i" and points as writable "I"; ValueError for a malformed
   state, k < 1, m past INT_MAX, or outputs of another count; all before any write. */
static PyObject *draw(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer f = { 0 }, ms = { 0 }, ds = { 0 }, p = { 0 };
    struct stream s;
    Py_ssize_t k, m, r, i;
    PyObject *after = NULL;
    double *fit = NULL;
    if (nargs != 6)
        return PyErr_Format(PyExc_TypeError, "draw takes 6 arguments");
    if ((s.index = read_state(args[0], s.mt)) < 0
        || ((k = PyNumber_AsSsize_t(args[2], NULL)) == -1 && PyErr_Occurred()))
        return NULL;
    if (read_buffer(args[1], &f, "d", sizeof(double), 0, "draw")
        || read_buffer(args[3], &ms, "i", sizeof(int), 1, "draw")
        || read_buffer(args[4], &ds, "i", sizeof(int), 1, "draw")
        || read_buffer(args[5], &p, "I", sizeof(uint32_t), 1, "draw"))
        goto done;
    m = f.len / (Py_ssize_t)sizeof(double);
    if (k < 1 || m > INT_MAX || ms.len != (Py_ssize_t)sizeof(int) * m || ds.len != ms.len
        || p.len != (Py_ssize_t)sizeof(uint32_t) * POINTS_PER_CHILD * m) {
        PyErr_SetString(PyExc_ValueError, "draw: k, fitness, mums, dads and points disagree");
        goto done;
    }
    if (!(fit = PyMem_New(double, m))) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < m; i++)
        fit[i] = isnan(((const double *)f.buf)[i]) ? INFINITY : ((const double *)f.buf)[i];
    temper(&s);
    for (r = 0; r < 2 * m; r++) {  /* the first entrant leads; a later one takes the lead */
        Py_ssize_t best = ENTRANT(next_word(&s), m), e;  /* without a branch to mispredict */
        double low = fit[best], v;
        for (i = 1; i < k; i++) {
            int lead;
            e = ENTRANT(next_word(&s), m), v = fit[e];
            lead = (v < low) | ((v == low) & (e < best));
            best = lead ? e : best, low = lead ? v : low;
        }
        ((int *)(r & 1 ? ds : ms).buf)[r >> 1] = (int)best;
    }
    for (r = 0; r < POINTS_PER_CHILD * m; r++)
        ((uint32_t *)p.buf)[r] = next_word(&s);
done:
    PyMem_Free(fit);
    after = PyErr_Occurred() ? NULL : write_state(&s);  /* with the buffers still held */
    PyBuffer_Release(&f), PyBuffer_Release(&ms), PyBuffer_Release(&ds), PyBuffer_Release(&p);
    return after;
}

/* plan(mums, dads) -> (children, status, chain1): breeding_plan.python_plan's three lists,
   for the parent indices that draw_outcome writes. children[p] lists parent p's children in
   child order, a child twice where p is both its parents; status[s] is 1 where child s is
   the only child of a parent, else 2; chain1 holds the status-1 children, highest first.
   TypeError unless read_buffer takes both as format "i"; ValueError, with python_plan's
   text, where the lengths differ and then for the first child with a parent outside 0 to
   n - 1. One pass copies each parent, range-checked, into a block that also holds a count
   per parent; the lists are built from that block alone. */
static PyObject *plan(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer ms = { 0 }, ds = { 0 };
    PyObject *children = NULL, *status = NULL, *chain1 = NULL, *result = NULL;
    Py_ssize_t n, s, i, p, *parent = NULL;  /* parent[i]: child i / 2's mum, or its dad */
    Py_ssize_t *left;  /* left[p]: p's children, then its places to fill */
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "plan takes 2 arguments");
    if (read_buffer(args[0], &ms, "i", sizeof(int), 0, "plan")
        || read_buffer(args[1], &ds, "i", sizeof(int), 0, "plan"))
        goto done;
    if (ms.len != ds.len) {
        PyErr_SetString(PyExc_ValueError, "mums and dads must have equal length");
        goto done;
    }
    if (!(parent = PyMem_Calloc(3 * (n = ms.len / (Py_ssize_t)sizeof(int)) + 1, sizeof *parent))) {
        PyErr_NoMemory();
        goto done;
    }
    for (left = parent + 2 * n, i = 0; i < 2 * n; i++) {
        if ((p = parent[i] = ((const int *)(i & 1 ? ds : ms).buf)[i >> 1]) < 0 || p >= n) {
            PyErr_Format(PyExc_ValueError, "parent index out of range for child %zd", i >> 1);
            goto done;
        }
        left[p]++;
    }
    if (!(children = PyList_New(n)) || !(status = PyList_New(n)) || !(chain1 = PyList_New(0)))
        goto done;
    for (p = 0; p < n; p++) {
        PyObject *kids = PyList_New(left[p]);
        if (!kids)
            goto done;
        PyList_SET_ITEM(children, p, kids);
    }
    for (s = n - 1; s >= 0; s--) {  /* each list filled from its end: in child order */
        PyObject *id = PyLong_FromSsize_t(s), *kids;
        int single = 0;
        if (!id)
            goto done;
        for (i = 2 * s; i < 2 * s + 2; i++) {
            kids = PyList_GET_ITEM(children, p = parent[i]);
            single |= PyList_GET_SIZE(kids) == 1;
            Py_INCREF(id), PyList_SET_ITEM(kids, --left[p], id);
        }
        PyList_SET_ITEM(status, s, PyLong_FromLong(single ? 1 : 2));  /* cached small ints */
        if (single && PyList_Append(chain1, id)) {
            Py_DECREF(id);
            goto done;
        }
        Py_DECREF(id);
    }
    result = PyTuple_Pack(3, children, status, chain1);
done:
    PyMem_Free(parent);
    PyBuffer_Release(&ms), PyBuffer_Release(&ds);
    Py_XDECREF(children), Py_XDECREF(status), Py_XDECREF(chain1);
    return result;
}

/* numpy's pairwise sum of |p - t| (loops_utils.h): 8 accumulators up to 128, halves above */
static double pairwise(const double *p, const double *t, Py_ssize_t n)
{
    double r[8] = { 0 }, res = -0.0;  /* 0.0 + |d| is |d|: numpy's r[i] = |d| */
    Py_ssize_t i = 0, half = n / 16 * 8;
    if (n > 128)
        return pairwise(p, t, half) + pairwise(p + half, t + half, n - half);
    for (; i < n / 8 * 8; i++)
        r[i & 7] += fabs(p[i] - t[i]);
    if (n >= 8)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += fabs(p[i] - t[i]);
    return res;
}

/* abs_error(pred, targets) -> the sum of |pred - targets| from 0.0, or inf where not finite.
   TypeError unless read_buffer takes both as format "d"; ValueError where their counts
   differ. */
static PyObject *abs_error(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer p = { 0 }, t = { 0 };
    double sum = 0.0;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "abs_error takes 2 arguments");
    if (!read_buffer(args[0], &p, "d", sizeof(double), 0, "abs_error")
        && !read_buffer(args[1], &t, "d", sizeof(double), 0, "abs_error")) {
        if (p.len == t.len)
            sum += pairwise(p.buf, t.buf, p.len / (Py_ssize_t)sizeof(double));
        else
            PyErr_SetString(PyExc_ValueError, "pred and targets differ in size");
    }
    PyBuffer_Release(&p), PyBuffer_Release(&t);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(isfinite(sum) ? sum : INFINITY);
}

static PyMethodDef methods[] = {
    { "evaluate", (PyCFunction)(void (*)(void))evaluate, METH_FASTCALL, NULL },
    { "abs_error", (PyCFunction)(void (*)(void))abs_error, METH_FASTCALL, NULL },
    { "draw", (PyCFunction)(void (*)(void))draw, METH_FASTCALL, NULL },
    { "crossover", (PyCFunction)(void (*)(void))crossover, METH_FASTCALL, NULL },
    { "plan", (PyCFunction)(void (*)(void))plan, METH_FASTCALL, NULL },
    { NULL },
};
/* the type of evaluate's rows, made ready once per process: a second load finds it ready */
static int exec_module(PyObject *Py_UNUSED(module))
{
    return PyType_Ready(&DoublesType);
}
static PyModuleDef_Slot slots[] = { { Py_mod_exec, (void *)exec_module }, { 0, NULL } };
static struct PyModuleDef module = { PyModuleDef_HEAD_INIT, "poolgp_kernel", NULL, 0, methods,
                                       slots, NULL, NULL, NULL };
PyMODINIT_FUNC PyInit_poolgp_kernel(void) { return PyModuleDef_Init(&module); }
