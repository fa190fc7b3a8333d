"""Independent Gram-matrix oracles for the level inner products.

Both build the dense level-n Gram matrix over the lexicographic word basis
{1..d}^n without the library's right-peeling content blocks:

* ``permutation_gram`` sums q^inversions(pi) over all permutations pi that
  carry one word to the other (constant q only; n! terms per word, so keep
  n <= 6);
* ``left_peeling_gram`` peels the first letter of the row word against
  left annihilation, for any deformation matrix.
"""

from itertools import permutations, product


def _words(d, n):
    return [tuple(w) for w in product(range(1, d + 1), repeat=n)]


def permutation_gram(n, d, q):
    """G[target][source] = sum over pi with pi(source) = target of q^inv(pi)."""
    words = _words(d, n)
    index = {w: k for k, w in enumerate(words)}
    powers = [q**0]
    for _ in range(n * (n - 1) // 2):
        powers.append(powers[-1] * q)
    mat = [[0] * len(words) for _ in words]
    for pi in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if pi[a] > pi[b])
        for k, source in enumerate(words):
            target = tuple(source[pi[t]] for t in range(n))
            mat[index[target]][k] = mat[index[target]][k] + powers[inv]
    return mat


def left_peeling_gram(n, deformation):
    """<e_u, e_v> = sum over t with v[t] = u[0] of
    (prod_{s<t} q(u[0], v[s])) <e_{u[1:]}, e_{v without t}>."""
    q = deformation.q
    memo = {}

    def ip(u, v):
        if not u:
            return 1
        key = (u, v)
        if key not in memo:
            i = u[0]
            total = 0
            c = 1
            for t, letter in enumerate(v):
                if letter == i:
                    total = total + c * ip(u[1:], v[:t] + v[t + 1 :])
                c = c * q(i, letter)
            memo[key] = total
        return memo[key]

    words = _words(deformation.d, n)
    return [[ip(u, v) for v in words] for u in words]
