"""The exponential of a family of integer content polynomials, written
out independently of the package, as the inverse of
`hurwitz.character.content_log`.

A family z_0, z_1, ..., z_N of integer Laurent polynomials, each a
{exponent: coefficient} dict, stands for the generating series
sum z_n x^n / (n!)^2.
"""

from math import comb


def content_exp(f):
    # z_n = sum over 1 <= k <= n of C(n-1, k-1) C(n, k) f_k z_{n-k};
    # f_0 is ignored (taken to be zero) and z_0 = 1
    z = [{0: 1}]
    for n in range(1, len(f)):
        zn = {}
        for k in range(1, n + 1):
            weight = comb(n - 1, k - 1) * comb(n, k)
            for a, x in f[k].items():
                for b, y in z[n - k].items():
                    zn[a + b] = zn.get(a + b, 0) + weight * x * y
        z.append({c: m for c, m in zn.items() if m})
    return z


def series_product(a, b):
    # coefficient of x^n / (n!)^2 in the product of two such series:
    # sum over k of C(n, k)^2 a_k b_{n-k}
    product = []
    for n in range(min(len(a), len(b))):
        cn = {}
        for k in range(n + 1):
            weight = comb(n, k) ** 2
            for s, x in a[k].items():
                for t, y in b[n - k].items():
                    cn[s + t] = cn.get(s + t, 0) + weight * x * y
        product.append({c: m for c, m in cn.items() if m})
    return product
