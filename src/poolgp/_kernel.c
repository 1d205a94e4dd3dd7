/* poolgp's per-node loops as a CPython extension module, built and loaded by _kernel.py.

   The numbers that genome.py owns come in as -D macros from _kernel.defines():
   CONSTANTS_LIST (the constant table), CROSSOVER_ATTEMPTS and ON_STACK. Opcodes are
   numbered as in genome.py. Each stack value is n doubles, and the top one is a, as in
   _interpret. A complete encoding of length cells holds at most cap = (length + 1) / 2
   values at once, so a push past cap is an incomplete one. */
#include <Python.h>
#include <stdint.h>
#if !defined(CONSTANTS_LIST) || !defined(CROSSOVER_ATTEMPTS) || !defined(ON_STACK)
#error "build with the -D flags of poolgp._kernel.defines()"
#endif
enum { ADD, SUB, MUL, DIV, VAR_X, CONST_BASE };
static const double CONSTANTS[] = { CONSTANTS_LIST };
#define END (CONST_BASE + (int)(sizeof CONSTANTS / sizeof *CONSTANTS))

/* 0, with the root's n values in out, or an ERRORS status. The value stack is cap * n
   doubles: on the C stack up to ON_STACK (a 127-cell genome over 32 cases), else from
   malloc. Each node picks its opcode once and runs one plain loop over the n values. */
static int run(const unsigned char *code, Py_ssize_t length, const double *x, Py_ssize_t n,
               double *out)
{
    double local[ON_STACK], *stack = local, *a, *b, c;
    Py_ssize_t cap = (length + 1) / 2, depth = 0, i, j;
    int status = 0;
    if (length < 1)
        return 3;
    if ((size_t)n > (size_t)-1 / 2 / sizeof(double) / (size_t)cap
        || (cap * n > ON_STACK && !(stack = malloc(sizeof(double) * (size_t)(cap * n)))))
        return 4;
    for (i = length - 1; i >= 0 && !status; i--) {
        int op = code[i];
        if (op >= END)
            status = 1;
        else if (op >= VAR_X && depth == cap)
            status = 3;
        else if (op == VAR_X)
            memcpy(stack + depth++ * n, x, sizeof(double) * (size_t)n);
        else if (op > VAR_X)
            for (b = stack + depth++ * n, c = CONSTANTS[op - CONST_BASE], j = 0; j < n; j++)
                b[j] = c;
        else if (depth < 2)
            status = 2;
        else {
            a = stack + --depth * n, b = a - n;
            switch (op) {
            case ADD: for (j = 0; j < n; j++) b[j] = a[j] + b[j]; break;
            case SUB: for (j = 0; j < n; j++) b[j] = a[j] - b[j]; break;
            case MUL: for (j = 0; j < n; j++) b[j] = a[j] * b[j]; break;
            default: for (j = 0; j < n; j++) b[j] = b[j] != 0.0 ? a[j] / b[j] : 1.0;
            }
        }
    }
    if (!status && depth == 1)
        memcpy(out, stack, sizeof(double) * (size_t)n);
    if (stack != local)
        free(stack);
    return status ? status : depth == 1 ? 0 : 3;
}

/* evaluate(code, length, x, out) -> 0 with the root's values in out, or an ERRORS status;
   every buffer is a C-contiguous view, or refused */
static PyObject *evaluate(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer c = { 0 }, x = { 0 }, out = { 0 };  /* releasing one never taken does nothing */
    Py_ssize_t length;
    int status = -1;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "evaluate takes 4 arguments");
    if (((length = PyLong_AsSsize_t(args[1])) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &c, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[2], &x, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[3], &out, PyBUF_WRITABLE))
        status = length < 0 || length > c.len || out.len != x.len ? 5
               : run(c.buf, length, x.buf, x.len / (Py_ssize_t)sizeof(double), out.buf);
    PyBuffer_Release(&c), PyBuffer_Release(&x), PyBuffer_Release(&out);
    return status < 0 ? NULL : PyLong_FromLong(status);
}

/* subtree_end(code, start) -> one past the subtree rooted at start, by an arity walk over
   code's bytes; IndexError where the walk leaves code. A negative index counts from the
   end, as code[i] does in Python. */
static PyObject *subtree_end(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer c = { 0 };
    Py_ssize_t i, k, need = 1;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "subtree_end takes 2 arguments");
    if (((i = PyNumber_AsSsize_t(args[1], PyExc_IndexError)) == -1 && PyErr_Occurred())
        || PyObject_GetBuffer(args[0], &c, PyBUF_SIMPLE))
        return NULL;
    for (; need; i++) {
        k = i < 0 ? i + c.len : i;
        if (k < 0 || k >= c.len) {
            PyErr_SetString(PyExc_IndexError, "subtree_end walked out of the code");
            break;
        }
        need += ((const unsigned char *)c.buf)[k] < VAR_X ? 1 : -1;
    }
    PyBuffer_Release(&c);
    return need ? NULL : PyLong_FromSsize_t(i);
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
   a copy of mum. ValueError unless 1 <= mum_len <= len(mum), 1 <= dad_len <= len(dad),
   mum_len <= capacity <= len(child) and points holds 2 * CROSSOVER_ATTEMPTS 4-byte words;
   IndexError where a walk leaves its parent's length. So child is never written past
   capacity, and the copies run in Python's order, as memmove, for a child that is a
   parent too. */
static PyObject *crossover(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer m = { 0 }, d = { 0 }, c = { 0 }, p = { 0 };
    Py_ssize_t ml, dl, cap, mp, dp, me, de, len = -1;
    uint32_t w[2 * CROSSOVER_ATTEMPTS];
    int i;
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "crossover takes 7 arguments");
    if (((ml = PyNumber_AsSsize_t(args[1], NULL)) != -1 || !PyErr_Occurred())
        && ((dl = PyNumber_AsSsize_t(args[3], NULL)) != -1 || !PyErr_Occurred())
        && ((cap = PyNumber_AsSsize_t(args[5], NULL)) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &m, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[2], &d, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[4], &c, PyBUF_WRITABLE)
        && !PyObject_GetBuffer(args[6], &p, PyBUF_FORMAT)) {
        const unsigned char *mum = m.buf, *dad = d.buf;
        unsigned char *out = c.buf;
        if (ml < 1 || ml > m.len || dl < 1 || dl > d.len || cap < ml || cap > c.len
            || p.itemsize != sizeof *w || p.len < (Py_ssize_t)sizeof w)
            PyErr_SetString(PyExc_ValueError, "crossover: a length, the capacity or the "
                                              "points out of range");
        else {
            memcpy(w, p.buf, sizeof w);
            for (i = 0; i < 2 * CROSSOVER_ATTEMPTS; i += 2) {
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
            if (i == 2 * CROSSOVER_ATTEMPTS)
                memmove(out, mum, (size_t)(len = ml));
        }
    }
    PyBuffer_Release(&m), PyBuffer_Release(&d), PyBuffer_Release(&c), PyBuffer_Release(&p);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(len);
}

/* tournaments(words, fit, k, out): out[r] (uint64) is the winner of the best of the k
   entrants that little-endian uint32 words r * k to r * k + k - 1 draw, word u drawing
   member (u * m) >> 32 of fit's m doubles. The lowest fitness wins, NaN ranking as inf,
   and ties go to the lowest index. */
static PyObject *tournaments(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer w = { 0 }, f = { 0 }, out = { 0 };
    Py_ssize_t k, m, n, r, i;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "tournaments takes 4 arguments");
    if (((k = PyLong_AsSsize_t(args[2])) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &w, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[1], &f, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[3], &out, PyBUF_WRITABLE)) {
        const unsigned char *u = w.buf;
        const double *fit = f.buf;
        uint64_t *winner = out.buf;
        m = f.len / (Py_ssize_t)sizeof(double), n = out.len / (Py_ssize_t)sizeof(uint64_t);
        if (k < 1 || (n && (m < 1 || (uint64_t)m > UINT32_MAX)) || n > PY_SSIZE_T_MAX / 4 / k
            || w.len != 4 * n * k)
            PyErr_SetString(PyExc_ValueError, "tournaments: k, words, fit and out disagree");
        else
            for (r = 0; r < n; r++) {
                uint64_t best = 0, e;
                double low = 0.0, v;
                for (i = 0; i < k; i++, u += 4) {
                    e = (((uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16
                          | (uint64_t)u[3] << 24) * (uint64_t)m) >> 32;
                    v = isnan(fit[e]) ? INFINITY : fit[e];
                    if (!i || v < low || (v == low && e < best))
                        best = e, low = v;
                }
                winner[r] = best;
            }
    }
    PyBuffer_Release(&w), PyBuffer_Release(&f), PyBuffer_Release(&out);
    return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
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

/* abs_error(pred, targets) -> the sum of |pred - targets| from 0.0, or inf where not finite */
static PyObject *abs_error(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer p = { 0 }, t = { 0 };
    double sum = 0.0;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "abs_error takes 2 arguments");
    if (!PyObject_GetBuffer(args[0], &p, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[1], &t, PyBUF_SIMPLE)) {
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
    { "subtree_end", (PyCFunction)(void (*)(void))subtree_end, METH_FASTCALL, NULL },
    { "tournaments", (PyCFunction)(void (*)(void))tournaments, METH_FASTCALL, NULL },
    { "crossover", (PyCFunction)(void (*)(void))crossover, METH_FASTCALL, NULL },
    { NULL },
};
static struct PyModuleDef module = { PyModuleDef_HEAD_INIT, "poolgp_kernel", NULL, 0, methods,
                                       NULL, NULL, NULL, NULL };
PyMODINIT_FUNC PyInit_poolgp_kernel(void) { return PyModuleDef_Init(&module); }
