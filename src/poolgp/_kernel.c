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
   function reads a Python container item by item but breed the pool's list of slots. An
   exported array.array refuses to resize, so a finalizer that a new object starts cannot
   shrink what is left to read; it can still write to it, so draw copies its fitness and
   plan and breed their parents into C memory before any of them writes an output or builds
   an object. breed, which runs a one-breeder generation whose twin is engine.Breeding's
   steps, holds no buffer of a slot, so it makes no object from its first read of a slot's
   address to its last write. */
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
   buffer of format "d", which memoryview() and numpy read, and has a length and items. The
   cheapest owner of fresh doubles: no numpy array, and no memoryview built on every call. */
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

/* len(row) and row[i], as array("d") gives them: Python counts a negative i from the end
   before it calls doubles_item, and an i still outside the row is an IndexError */
static Py_ssize_t doubles_length(PyObject *self)
{
    return Py_SIZE(self);
}

static PyObject *doubles_item(PyObject *self, Py_ssize_t i)
{
    if (i < 0 || i >= Py_SIZE(self))
        return PyErr_Format(PyExc_IndexError, "array index out of range");
    return PyFloat_FromDouble(((Doubles *)self)->value[i]);
}

static PyBufferProcs doubles_buffer = { doubles_getbuffer, NULL };
static PySequenceMethods doubles_sequence = { .sq_length = doubles_length,
                                              .sq_item = doubles_item };
static PyTypeObject DoublesType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "poolgp_kernel.doubles",
    .tp_basicsize = sizeof(Doubles),
    .tp_itemsize = sizeof(double),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_as_sequence = &doubles_sequence,
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

/* the child's length from mum's ml cells and dad's dl: attempt i swaps mum's subtree at node
   pick(w[2i], ml) for dad's at pick(w[2i + 1], dl) if the offspring fits in cap cells; after
   CROSSOVER_ATTEMPTS the child is a copy of mum. -1 where a walk leaves its parent's length,
   before anything is written. The copies run in Python's order, as memmove, for a child that
   is a parent too. */
static Py_ssize_t cross(const unsigned char *mum, Py_ssize_t ml, const unsigned char *dad,
                        Py_ssize_t dl, unsigned char *out, Py_ssize_t cap, const uint32_t *w)
{
    Py_ssize_t mp, dp, me, de, len;
    int i;
    for (i = 0; i < POINTS_PER_CHILD; i += 2) {
        mp = pick(w[i], ml), dp = pick(w[i + 1], dl);
        if ((me = walk(mum, mp, ml)) < 0 || (de = walk(dad, dp, dl)) < 0)
            return -1;
        if ((len = ml - (me - mp) + (de - dp)) <= cap) {
            memmove(out, mum, (size_t)mp);
            memmove(out + mp, dad + dp, (size_t)(de - dp));
            memmove(out + mp + de - dp, mum + me, (size_t)(ml - me));
            return len;
        }
    }
    memmove(out, mum, (size_t)ml);
    return ml;
}

/* crossover(mum, mum_len, dad, dad_len, child, capacity, points) -> the child's length:
   genome.python_crossover, to the same bytes and the same exception classes, by cross over
   the points' first POINTS_PER_CHILD words. TypeError unless read_buffer takes points as
   "I"; ValueError unless 1 <= mum_len <= len(mum), 1 <= dad_len <= len(dad),
   mum_len <= capacity <= len(child) and points holds POINTS_PER_CHILD words; IndexError
   where a walk leaves its parent's length. So child is never written past capacity. */
static PyObject *crossover(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer m = { 0 }, d = { 0 }, c = { 0 }, p = { 0 };
    Py_ssize_t ml, dl, cap, len = -1;
    uint32_t w[POINTS_PER_CHILD];
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "crossover takes 7 arguments");
    if (((ml = PyNumber_AsSsize_t(args[1], NULL)) != -1 || !PyErr_Occurred())
        && ((dl = PyNumber_AsSsize_t(args[3], NULL)) != -1 || !PyErr_Occurred())
        && ((cap = PyNumber_AsSsize_t(args[5], NULL)) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &m, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[2], &d, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[4], &c, PyBUF_WRITABLE)
        && !read_buffer(args[6], &p, "I", sizeof *w, 0, "crossover")) {
        if (ml < 1 || ml > m.len || dl < 1 || dl > d.len || cap < ml || cap > c.len
            || p.len < (Py_ssize_t)sizeof w)
            PyErr_SetString(PyExc_ValueError, "crossover: a length, the capacity or the "
                                              "points out of range");
        else {
            memcpy(w, p.buf, sizeof w);
            if ((len = cross(m.buf, ml, d.buf, dl, c.buf, cap, w)) < 0)
                PyErr_SetString(PyExc_IndexError, "crossover walked out of a parent");
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

/* breed's faults, by status; figures[0] and figures[1] take the numbers that each one's text
   names (BREED_FAULTS in _kernel.py) */
enum { RELEASE_OUTSIDE = 1, NOT_IN_USE, NO_FREE_SLOT, NOT_A_CHILD, WALKED_OUT, LENGTH_OUTSIDE,
       SLOT_OUTSIDE, FREE_FULL };
enum { FIGURES = 6 };  /* nfree, used, peak, class-1 claims, promotions, childless parents */

/* the pool as breed sees it: BufferPool's slots, flags, free stack (top last) and counts */
struct pool {
    unsigned char **slot, *in_use;  /* slot[1..capacity]: each buffer's first byte */
    int *free, fault[2];
    Py_ssize_t capacity, size, room, nfree, used, peak;  /* size: every slot's bytes */
};

/* BufferPool.release: slot back on the free stack, or a fault */
static int give_back(struct pool *b, int slot)
{
    b->fault[0] = slot, b->fault[1] = (int)b->capacity;
    if (slot < 1 || slot > b->capacity)
        return RELEASE_OUTSIDE;
    if (!b->in_use[slot])
        return NOT_IN_USE;
    if (b->nfree == b->room)
        return b->fault[1] = (int)b->room, FREE_FULL;
    b->in_use[slot] = 0, b->free[b->nfree++] = slot, b->used--;
    return 0;
}

/* BufferPool.acquire: the free stack's top into *slot, or a fault */
static int take(struct pool *b, int *slot)
{
    if (!b->nfree)
        return b->fault[0] = (int)b->capacity, b->fault[1] = (int)b->used, NO_FREE_SLOT;
    if ((*slot = b->free[--b->nfree]) < 1 || *slot > b->capacity)
        return b->fault[0] = *slot, b->fault[1] = (int)b->capacity, SLOT_OUTSIDE;
    b->in_use[*slot] = 1;
    if (++b->used > b->peak)
        b->peak = b->used;
    return 0;
}

/* member i's buffer and length into *code and *len where the slot is in range and the length
   fits it, as crossover requires; else a fault */
static int member(struct pool *b, const int *ids, const int *lens, int i,
                  const unsigned char **code, Py_ssize_t *len)
{
    int slot = ids[i];
    if (slot < 1 || slot > b->capacity)
        return b->fault[0] = slot, b->fault[1] = (int)b->capacity, SLOT_OUTSIDE;
    if ((*len = lens[i]) < 1 || *len > b->size)
        return LENGTH_OUTSIDE;
    *code = b->slot[slot];
    return 0;
}

/* breed(slots, in_use, free, nfree, slot_ids, lengths, mums, dads, points, new_ids,
   new_lengths, figures) -> 0, or a fault's status: a whole generation's breeding by one
   breeder, in the order of engine.Breeding's steps, which are its twin. The pool is
   slots[1..capacity] (slots[0] is not read), the flags in_use[0..capacity] and the free
   stack's first nfree slots, so capacity - nfree are used. Member i holds slot slot_ids[i]
   and lengths[i] cells; child s has parents mums[s] and dads[s] and crosses over from the
   POINTS_PER_CHILD words of points from POINTS_PER_CHILD * s on.
   The plan is BreedingPlan's, in C memory: a run per parent of the children it has still to
   book (in one block), status, chain 1 and the class-2 cursor. The peak starts at used, and
   childless parents give their buffers back in parent order. Then each step books the
   finished child: it leaves each parent's run once, a parent left one child promotes that
   child where it is still class 2 (the booked child, claimed, is not), and a parent left
   none gives its buffer back. It claims the next child (chain 1's top, else the lowest
   class-2 child), takes the free stack's top for it and crosses over into the whole slot,
   into new_ids[s] and new_lengths[s]. figures takes the FIGURES counts; a fault stops it
   with the two numbers its text names in figures[0] and figures[1].
   TypeError unless slots is a list of bytearrays after its first item, in_use a writable "B"
   buffer, free, new_ids, new_lengths and figures writable "i", slot_ids, lengths, mums and
   dads "i" and points "I"; ValueError, before any write, where the slots differ in size, the
   counts disagree or free has no room for every slot, and with python_plan's text for a
   parent out of range. Every slot's address is read once, and from then until the last
   write nothing makes a Python object, so no finalizer can resize a slot under it; each slot
   id and length is range-checked where it is used. */
static PyObject *breed(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    enum { IN_USE, FREE, IDS, LENGTHS, MUMS, DADS, POINTS, NEW_IDS, NEW_LENGTHS, FIG, NBUF };
    static const struct { int arg, writable; const char *format; Py_ssize_t itemsize; } BUF[] = {
        { 1, 1, "B", 1 }, { 2, 1, "i", sizeof(int) }, { 4, 0, "i", sizeof(int) },
        { 5, 0, "i", sizeof(int) }, { 6, 0, "i", sizeof(int) }, { 7, 0, "i", sizeof(int) },
        { 8, 0, "I", sizeof(uint32_t) }, { 9, 1, "i", sizeof(int) }, { 10, 1, "i", sizeof(int) },
        { 11, 1, "i", sizeof(int) } };
    Py_buffer v[NBUF] = { { 0 } };
    struct pool b = { 0 };
    PyObject *slots = nargs == 12 ? args[0] : NULL;
    Py_ssize_t n = 0, s, i, k;
    int *block = NULL, *parent, *kids, *start, *left, *chain1, *ids, *lens, *out_ids, *out_lens;
    int top = 0, next2 = 0, done = -1, p, slot, status = 0, class1 = 0, promotions = 0;
    int childless = 0;
    unsigned char *st;  /* each child's status: 1 (class 1), 2 (class 2+) or 0 (claimed) */
    if (!slots)
        return PyErr_Format(PyExc_TypeError, "breed takes 12 arguments");
    if ((b.nfree = PyNumber_AsSsize_t(args[3], NULL)) == -1 && PyErr_Occurred())
        return NULL;
    for (i = 0; i < NBUF; i++)
        if (read_buffer(args[BUF[i].arg], &v[i], BUF[i].format, BUF[i].itemsize,
                        BUF[i].writable, "breed"))
            goto done;
    if (!PyList_CheckExact(slots)) {  /* read after the buffers: no exporter runs after it */
        PyErr_SetString(PyExc_TypeError, "breed takes the pool's list of bytearrays");
        goto done;
    }
    b.capacity = PyList_GET_SIZE(slots) - 1;
    for (i = 1; i <= b.capacity; i++) {
        PyObject *item = PyList_GET_ITEM(slots, i);
        if (!PyByteArray_CheckExact(item)) {
            PyErr_SetString(PyExc_TypeError, "breed takes the pool's list of bytearrays");
            goto done;
        }
        if (i == 1)
            b.size = PyByteArray_GET_SIZE(item);
        else if (PyByteArray_GET_SIZE(item) != b.size) {
            PyErr_SetString(PyExc_ValueError, "breed: the slots differ in size");
            goto done;
        }
    }
    n = v[IDS].len / (Py_ssize_t)sizeof(int), b.room = v[FREE].len / (Py_ssize_t)sizeof(int);
    for (i = LENGTHS; i <= NEW_LENGTHS; i++)
        if (i != POINTS && v[i].len != v[IDS].len)
            break;
    if (b.capacity < 0 || b.capacity >= INT_MAX || n > INT_MAX / 2 || i <= NEW_LENGTHS
        || v[POINTS].len != (Py_ssize_t)sizeof(uint32_t) * POINTS_PER_CHILD * n
        || v[IN_USE].len != b.capacity + 1 || b.room < b.capacity || b.nfree < 0
        || b.nfree > b.capacity || v[FIG].len != (Py_ssize_t)sizeof(int) * FIGURES) {
        PyErr_SetString(PyExc_ValueError, "breed: the slots, flags, free stack, members, "
                                          "parents, points and outputs disagree");
        goto done;
    }
    /* parent[2s], parent[2s + 1]: child s's mum and dad, copied and checked; then kids, a run
       per parent from start[p] whose first left[p] entries are still to book; chain 1 */
    if ((size_t)n > PY_SSIZE_T_MAX / (7 * sizeof(int) + 1)
        || !(block = PyMem_Malloc((size_t)n * (7 * sizeof(int) + 1) + 1))
        || !(b.slot = PyMem_New(unsigned char *, b.capacity + 1))) {
        PyErr_NoMemory();
        goto done;
    }
    parent = block, kids = parent + 2 * n, start = kids + 2 * n, left = start + n;
    chain1 = left + n, st = (unsigned char *)(chain1 + n);
    memset(left, 0, sizeof(int) * (size_t)n);
    for (i = 0; i < 2 * n; i++) {
        if ((p = parent[i] = ((const int *)v[i & 1 ? DADS : MUMS].buf)[i >> 1]) < 0 || p >= n) {
            PyErr_Format(PyExc_ValueError, "parent index out of range for child %zd", i >> 1);
            goto done;
        }
        left[p]++;
    }
    for (k = 0, p = 0; p < n; p++)
        start[p] = (int)k, k += left[p], left[p] = 0;
    for (i = 0; i < 2 * n; i++)
        kids[start[parent[i]] + left[parent[i]]++] = (int)(i >> 1);
    for (s = n - 1; s >= 0; s--)
        if ((st[s] = left[parent[2 * s]] == 1 || left[parent[2 * s + 1]] == 1 ? 1 : 2) == 1)
            chain1[top++] = (int)s;  /* the lowest on top */
    for (i = 1; i <= b.capacity; i++)
        b.slot[i] = (unsigned char *)PyByteArray_AS_STRING(PyList_GET_ITEM(slots, i));
    b.in_use = v[IN_USE].buf, b.free = v[FREE].buf, b.used = b.peak = b.capacity - b.nfree;
    ids = v[IDS].buf, lens = v[LENGTHS].buf, out_ids = v[NEW_IDS].buf;
    out_lens = v[NEW_LENGTHS].buf;
    for (p = 0; p < n && !status; p++)
        if (!left[p] && !(status = give_back(&b, ids[p])))
            childless++;
    while (!status) {
        for (i = 2 * done; done >= 0 && i < 2 * done + 2 && !status; i++) {  /* book done */
            int *run = kids + start[p = parent[i]], last = left[p] - 1;
            for (k = 0; k <= last && run[k] != done; k++)
                ;
            if (k > last) {
                b.fault[0] = done, b.fault[1] = p, status = NOT_A_CHILD;
                break;
            }
            run[k] = run[last];  /* no order is read: a run of one is its sole survivor */
            if ((left[p] = last) == 1 && st[run[0]] == 2)  /* the booked child is claimed: 0 */
                st[run[0]] = 1, chain1[top++] = run[0], promotions++;
            else if (!last)
                status = give_back(&b, ids[p]);
        }
        if (status)
            break;
        if (top)  /* claim the next child */
            s = chain1[--top], class1++;
        else {
            while (next2 < n && st[next2] != 2)
                next2++;
            if (next2 == n)
                break;
            s = next2++;
        }
        st[s] = 0;
        if (!(status = take(&b, &slot))) {
            const unsigned char *mum, *dad;
            Py_ssize_t ml, dl, len;
            out_ids[s] = slot;
            if (!(status = member(&b, ids, lens, parent[2 * s], &mum, &ml))
                && !(status = member(&b, ids, lens, parent[2 * s + 1], &dad, &dl))) {
                len = cross(mum, ml, dad, dl, b.slot[slot], b.size,
                            (const uint32_t *)v[POINTS].buf + POINTS_PER_CHILD * s);
                status = len < 0 ? WALKED_OUT : 0;
                out_lens[s] = (int)len, done = (int)s;
            }
        }
    }
    if (status)
        memcpy(v[FIG].buf, b.fault, sizeof b.fault);
    else {
        int figures[FIGURES] = { (int)b.nfree, (int)b.used, (int)b.peak, class1, promotions,
                                 childless };
        memcpy(v[FIG].buf, figures, sizeof figures);
    }
done:
    PyMem_Free(block), PyMem_Free(b.slot);
    for (i = 0; i < NBUF; i++)
        PyBuffer_Release(&v[i]);
    return PyErr_Occurred() ? NULL : PyLong_FromLong(status);
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
    { "breed", (PyCFunction)(void (*)(void))breed, METH_FASTCALL, NULL },
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
