/* Hex digits of pi at arbitrary positions, compiled kernel.
 *
 * The BBP digit extraction of the pure kernel (_bbp_py.py), but in 128-bit
 * integer arithmetic: one evaluation of the four series per 16 digits,
 * where the pure kernel makes one evaluation per call at a width that grows
 * with the digit count. The digits are written with the interpreter lock
 * released, so other threads (a worker's lease heartbeat) keep running
 * during a long call. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned __int128 sf_u128;

/* 16^e mod m for any m < 2^64; products go through 128 bits. */
static unsigned long long sf_modpow16(long long e, unsigned long long m)
{
    unsigned long long acc = 1 % m;
    unsigned long long b = 16 % m;
    while (e > 0) {
        if (e & 1)
            acc = (unsigned long long)((sf_u128)acc * b % m);
        b = (unsigned long long)((sf_u128)b * b % m);
        e >>= 1;
    }
    return acc;
}

/* Fractional part of sum_k 16^(d-k)/(8k+j) as 128-bit fixed point.
 * Head terms reduce 16^(d-k) mod m first, so (r << 128) / m is exact in
 * two 64-bit-limb steps; tail terms shrink by 16x each and run out
 * within 32 iterations. */
static sf_u128 sf_series(int j, long long d)
{
    sf_u128 acc = 0;
    long long k, t;
    for (k = 0; k <= d; k++) {
        unsigned long long m = 8 * k + j;
        sf_u128 top = ((sf_u128)sf_modpow16(d - k, m)) << 64;
        acc += ((top / m) << 64) + (((top % m) << 64) / m);
    }
    for (t = 1;; t++) {
        unsigned long long m = 8 * (d + t) + j;
        sf_u128 term = (~(sf_u128)0 / m) >> (4 * t);
        if (term == 0)
            break;
        acc += term;
    }
    return acc;
}

static void sf_pi_digits(long long start, long long count, char *out)
{
    static const char HEX[] = "0123456789ABCDEF";
    long long pos = start;
    long long produced = 0;
    while (produced < count) {
        long long d = pos - 1;
        sf_u128 x = 4 * sf_series(1, d) - 2 * sf_series(4, d)
                    - sf_series(5, d) - sf_series(6, d);
        int n = 0;
        while (n < 16 && produced < count) {
            out[produced++] = HEX[(unsigned)(x >> 124) & 0xF];
            x <<= 4;
            n++;
        }
        pos += n;
    }
}

static PyObject *hex_digits(PyObject *self, PyObject *args)
{
    long long start, count;
    PyObject *result;
    char *out;

    if (!PyArg_ParseTuple(args, "LL", &start, &count))
        return NULL;
    if (start < 1 || count < 1) {
        PyErr_SetString(PyExc_ValueError, "start and count must be positive");
        return NULL;
    }
    result = PyUnicode_New(count, 127);
    if (result == NULL)
        return NULL;
    out = (char *)PyUnicode_1BYTE_DATA(result);
    Py_BEGIN_ALLOW_THREADS
    sf_pi_digits(start, count, out);
    Py_END_ALLOW_THREADS
    return result;
}

static PyMethodDef bbp_methods[] = {
    {"hex_digits", hex_digits, METH_VARARGS,
     "hex_digits(start, count) -> str\n\n"
     "Hex digits of pi's fractional part at positions start..start+count-1.\n"
     "Position 1 is the first digit after the point: hex_digits(1, 3) == \"243\"."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef bbp_module = {
    PyModuleDef_HEAD_INIT, "_bbp",
    "Hex digits of pi at arbitrary positions, compiled kernel.", -1, bbp_methods
};

PyMODINIT_FUNC PyInit__bbp(void)
{
    PyObject *m = PyModule_Create(&bbp_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
