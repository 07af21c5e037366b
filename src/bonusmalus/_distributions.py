"""Gamma and Poisson distribution functions on numpy alone.

Every law here rests on one private kernel, the regularized incomplete gamma
``P(a, x)`` or ``Q(a, x) = 1 - P(a, x)`` for a scalar shape ``a`` and an
array ``x``.  Its regions are those of DiDonato & Morris (ACM TOMS 12, 377,
1986) and of the cephes kernel in scipy: the power series for P, the
continued fraction for Q where ``x > 1.1`` and ``x >= a``, the small-x series
for Q, and Temme's uniform expansion (DLMF 8.12) where ``a > 20`` and
``|x - a| < 0.3 a`` (scipy narrows that band to ``4.5 / sqrt(a)`` above
``a = 200``; the wider band keeps the series and the fraction short at every
shape).  Each element is computed on the side, P or Q, that its region gives
directly; the other side is its complement, which is about 1/2 or more, so no
small value comes from a subtraction.  The fraction runs bottom-up and the
series are sums of cumulative products, each to a depth bounded in advance; a
depth above ``MAX_TERMS`` raises ``BonusMalusError``.  Every choice of region,
path and depth is made per element, so no value depends on the other
arguments in its call.

The prefactor ``x**a e**-x / Gamma(a)`` is the product of ``x**a``,
``e**-x`` (scaled by ``e**700`` above ``x = 700``) and ``1 / Gamma(a)``
wherever those and their product are normal doubles.  Near underflow and
at large shapes the error comes from its exponent, which reaches about 745 in
magnitude; there the parts of the exponent are kept exact: ``x`` itself,
``lgamma(a)`` from ``decimal`` once per shape, and, wherever ``a |ln x| > 8``,
``a ln x`` in double-double arithmetic from a table-driven logarithm, so the
exponent's absolute error is near ``a * 1e-22``.  Temme's expansion reads
the deviance ``bd0(a, x) = a ln(a / x) + x - a``, Loader's saddle-point term,
as ``C(a)`` minus that exponent with ``C(a) = a ln a - a - lgamma(a)``; above
shapes of 1e6 it comes from a series in ``(x - a) / (x + a)`` instead.

The public functions keep the edge handling of ``scipy.stats.gamma`` and
``scipy.stats.poisson``: NaN for an invalid parameter or a NaN argument, the
limits at the support edges and at +-inf.  A 0-d result comes back as a numpy
scalar, as from ``scipy.stats``.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import BonusMalusError

MAX_TERMS = 2000  # depth cap of every series and continued fraction
_SERIES_BITS = 60  # a rising-series term below 2**-_SERIES_BITS is dropped
_BLOCK = 8192  # arguments per kernel pass: the fraction's levels take depth x block floats

# Temme's coefficients d[k][n] of c_k(eta) = sum_n d[k][n] eta**n (DLMF
# 8.12.13) for k < 15 and n < 20.  Where the expansion is used, a > 20 and
# |eta| < 0.34, so the terms left out sum to less than 1e-20.
_TEMME = np.array(
    [
        [-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
         0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
         -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
         -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
         -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
         -5.830772132550426e-11, 2.4361948020667415e-11, -5.0276692801141755e-12,
         1.1004392031956135e-13],
        [-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
         -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
         -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
         4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
         1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
         4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
         7.1624989648114856e-12, -2.933186643771437e-12],
        [0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
         2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
         -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
         -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
         -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
         9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
         1.197593554636698e-11, -4.1689782251838634e-15],
        [0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
         0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
         1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
         -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
         -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
         -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
         -2.1894761681963938e-11, 9.790998951171684e-12],
        [-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
         -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
         1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
         8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
         2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
         -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
         -4.356323005056618e-11, 1.278600101629623e-15],
        [-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
         -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
         -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
         -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
         4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
         3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
         9.358944242306784e-11, -4.513426216163278e-11],
        [0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
         7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
         -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
         -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
         -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
         8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
         2.1598224929232125e-10, -7.613230520476153e-16],
        [0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
         0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
         2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
         4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
         -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
         -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
         -5.327994173877286e-10, 2.7437977643314844e-10],
        [-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
         -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
         4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
         6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
         3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16,
         -9.590386497425686e-09, 5.213214492280807e-09, -1.3991589583935709e-09,
         5.382058999060575e-16],
        [-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
         -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
         -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
         -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
         8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07,
         8.862466778790695e-08, -2.5184812301826817e-08, -1.0225912098215092e-14,
         3.896947075815478e-09, -2.1267304792235634e-09],
        [0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07,
         -0.0005087450129309319, 0.00042735056665392886, -0.00016858853767910798,
         -8.1301893922785e-09, 4.5284402370562144e-05, -3.127053674781734e-05,
         1.044986828530338e-05, 4.8435226265680926e-11, -2.148256587345626e-06,
         1.329369701097492e-06, -4.029569309210103e-07, -1.756787766632329e-13,
         7.014504316366825e-08, -4.040787734999483e-08, 1.1474026743371964e-08,
         3.964274685356394e-18],
        [0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276, 0.00213896861856891,
         -0.0010108559391263003, -3.99127055299192e-07, 0.0003623502508476469,
         -0.00028143901463712157, 0.00010449513336495887, 2.12114184918303e-09,
         -2.5779417251947842e-05, 1.7281818956040464e-05, -5.641377387290428e-06,
         -1.1024320105776174e-11, 1.1223224418895174e-06, -6.869339637952674e-07,
         2.0653236975414888e-07, 4.6714772409838506e-14, -3.5609886164949055e-08,
         2.0470855345905963e-08],
        [-0.004072512119514016, 0.00640336283380807, -0.004041016108167662,
         -2.1837328028662328e-06, 0.002174044180125464, -0.001970044051841889,
         0.0008359546974796246, 1.9445447567109655e-08, -0.000257793871204217,
         0.00019009987368139304, -6.769649993743896e-05, -1.4440629666426571e-10,
         1.5712512518742267e-05, -1.0304008744776894e-05, 3.304517767401387e-06,
         7.982976024232571e-13, -6.4097794149313e-07, 3.8894624761300054e-07,
         -1.161834764494887e-07, -2.8168086305964423e-15],
        [-0.0059475779383993, -0.0005401647678926045, 0.00879104135507679, -0.009857631558785612,
         0.005013469503102154, 1.2807521786221875e-06, -0.0020626019342754685,
         0.0017109128573523059, -0.000676953127141338, -6.901154567656214e-09,
         0.00018855128143995903, -0.0001339521566349197, 4.626318303352804e-05,
         4.003423061332135e-11, -1.0255652921494033e-05, 6.612086372797651e-06,
         -2.0913022027253007e-06, -2.095177564960382e-13, 3.975602904199325e-07,
         -2.395621197881589e-07],
        [0.01740202778752271, -0.02952788094569912, 0.020045875571402798, 7.0289515966903405e-06,
         -0.012375421071343148, 0.011976293444235255, -0.0054156038466518525,
         -6.329089339641862e-08, 0.0018855118129005065, -0.001473473274825001,
         0.0005551581009770838, 5.240683441255066e-10, -0.00014357913535784835,
         9.91812932249433e-05, -3.346083474947831e-05, -3.5755837291098967e-12,
         7.1560851960630075e-06, -4.551680262815553e-06, 1.4236576649271474e-06,
         1.8803149079275236e-14],
    ]
)

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor
_LN2_HI = 6.93147180369123816490e-01  # ln 2 to 32 bits, so e * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = math.sqrt(0.5)
_TINY = np.finfo(float).tiny
_EXP_M700 = math.exp(-700.0)  # the double nearest e**-700
_LN_SQRT_2PI = Decimal("0.91893853320467274178032973640561763986139747363778")
_EULER = Decimal("0.57721566490153286060651209008240243104215933593992")
# lgamma(1 + a) = -euler a + sum_k (-1)**k zeta(k) / k a**k; the k = 2, 3, 4 terms
_LGAMMA1P = (
    Decimal("0.82246703342411321823620758332301259460947495060340"),
    Decimal("-0.40068563438653142846657938717048333025499543078017"),
    Decimal("0.27058080842778454787900092413529197569368773797968"),
)
# B_2k / (2k (2k - 1)), k = 1..10: Stirling's series for lgamma
_STIRLING = (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
    (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
)


# ln(1 + i/32) for i = -10..14 as double-double pairs (hi, lo)
_LOG_TABLE = np.array(
    [
        (-0.3746934494414107, 3.9243112288632396e-18),
        (-0.33024168687057687, 1.0828321637483858e-17),
        (-0.2876820724517809, -2.607160616442564e-17),
        (-0.24686007793152578, -1.361743371748368e-17),
        (-0.2076393647782445, -1.2053243216686129e-17),
        (-0.16989903679539747, 4.868008764439071e-19),
        (-0.13353139262452263, 3.664457663660085e-18),
        (-0.09844007281325252, 4.439009633675136e-18),
        (-0.06453852113757118, 6.470486661692933e-18),
        (-0.0317486983145803, -3.0382263084680858e-18),
        (0.0, 0.0),
        (0.030771658666753687, 1.0431732029005968e-18),
        (0.06062462181643484, 2.6424025938726934e-18),
        (0.08961215868968714, -5.4268129336647135e-18),
        (0.11778303565638346, -1.1971685747593677e-18),
        (0.1451820098444979, 8.242418783022475e-18),
        (0.17185025692665923, -6.0224538210113705e-18),
        (0.19782574332991987, 1.2821194372980142e-17),
        (0.22314355131420976, -9.091270597324799e-18),
        (0.24783616390458127, -1.2432209578702523e-17),
        (0.27193371548364176, 7.83319637697442e-19),
        (0.2954642128938359, -2.16461086040599e-17),
        (0.3184537311185346, 2.7114779367326236e-17),
        (0.3409265869705932, 1.7467136443544747e-17),
        (0.3629054936893685, -2.1492361455310972e-17),
    ]
).T


def _two_sum(a, b):
    """``a + b`` as an unevaluated pair (sum, rounding error)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _split_exact(a):
    """Dekker's split, exact for every finite ``a``, however large."""
    m, e = np.frexp(a)
    hi = np.ldexp(np.floor(m * 67108864.0) / 67108864.0, e)
    return hi, a - hi


def _two_prod(a, b, a_parts=None):
    """``a * b`` as an unevaluated pair (product, rounding error)."""
    p = a * b
    ah, al = a_parts or _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd(value: Decimal) -> tuple[float, float]:
    hi = float(value)
    return hi, float(value - Decimal(hi))


def _stirlerr(b: Decimal) -> Decimal:
    """``lgamma(b) - ((b - 1/2) ln b - b + ln sqrt(2 pi))`` for ``b >= 30``."""
    inv = 1 / b
    inv2, total = inv * inv, Decimal(0)
    for num, den in reversed(_STIRLING):
        total = total * inv2 + Decimal(num) / den
    return total * inv


@lru_cache(maxsize=256)
def _shape_terms(a: float):
    """Per-shape constants, from 40-digit ``decimal`` arithmetic.

    The prefactor's ``(lgamma(a), its low part, 1 / Gamma(a))``, with
    ``lgamma`` as a double-double; ``C(a) = a ln a - a - lgamma(a)`` as a
    double-double; ``lgamma(1 + a)``.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(a)
        ln_a = d.ln()
        shift = max(0, 30 - int(d))  # Stirling's series at d + shift >= 30
        if shift:
            b, product = d + shift, Decimal(1)
            for j in range(shift):
                product *= d + j
            lgamma = (b - Decimal("0.5")) * b.ln() - b + _LN_SQRT_2PI + _stirlerr(b)
            lgamma -= product.ln()
            c = d * ln_a - d - lgamma
        else:  # the closed form of C has no cancellation at large shapes
            stirlerr = _stirlerr(d)
            lgamma = (d - Decimal("0.5")) * ln_a - d + _LN_SQRT_2PI + stirlerr
            c = ln_a / 2 - _LN_SQRT_2PI - stirlerr
        if d < Decimal("1e-5"):  # lgamma(a) + ln a would cancel
            lgamma1p = -_EULER * d + sum(t * d ** (k + 2) for k, t in enumerate(_LGAMMA1P))
        else:
            lgamma1p = lgamma + ln_a
        rgamma = float((-lgamma).exp()) if lgamma < 745 else 0.0
        return (*_dd(lgamma), rgamma), _dd(c), float(lgamma1p)


def _log_dd(x):
    """``ln x`` for positive finite ``x`` as a double-double, absolute error near 1e-22.

    ``x = m 2**e`` with ``m`` in ``[sqrt(1/2), sqrt(2))``, and ``m = c (1 + r)``
    for the nearest ``c = 1 + i/32`` of a table; ``ln(1 + r) = 2 atanh(v)``
    with ``v = (m - c) / (m + c)`` below 0.012 in magnitude.
    """
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    np.multiply(m, 2.0, out=m, where=low)
    e = e - low
    i = np.rint(m * 32.0 - 32.0)
    c = i * 0.03125 + 1.0
    d = m - c  # exact
    s, s_lo = _two_sum(m, c)
    v = d / s
    p, p_lo = _two_prod(v, s)
    v_lo = ((d - p) - p_lo - v * s_lo) / s
    w = v * v
    tail = v * w * (2.0 / 3.0 + w * (0.4 + w * (2.0 / 7.0 + w * (2.0 / 9.0))))
    table_hi, table_lo = _LOG_TABLE
    idx = i.astype(np.intp) + 10
    hi, err = _two_sum(e * _LN2_HI, table_hi[idx])
    hi, err2 = _two_sum(hi, v + v)
    return hi, err + err2 + e * _LN2_LO + table_lo[idx] + 2.0 * v_lo + tail


def _log_prefactor(a, x, terms):
    """``ln(x**a e**-x / Gamma(a))`` for positive finite ``x`` as a double-double.

    ``terms`` are the prefactor terms of the shape ``a`` from ``_shape_terms``.
    ``x`` and ``lgamma(a)`` are exact and, wherever ``a |ln x| > 8``,
    ``a ln x`` is a double-double, so the absolute error is near
    ``a * 1e-22``; elsewhere ``ln x`` in double adds at most about
    ``12 * 2**-53``.  The choice is made per element.
    """
    lgamma, lgamma_lo = terms[0], terms[1]
    lx = np.log(x)
    y, y_lo = a * lx, np.zeros_like(lx)
    exact = a * np.abs(lx) > 8.0
    if exact.any():
        lx_hi, lx_lo = _log_dd(x[exact])
        p, p_lo = _two_prod(a, lx_hi, _split_exact(a))
        y[exact], y_lo[exact] = _two_sum(p, p_lo + a * lx_lo)
    hi, lo = _two_sum(y, -x)
    hi, lo2 = _two_sum(hi, -lgamma)
    return hi, lo + lo2 + y_lo - lgamma_lo


def _exp_dd(hi, lo):
    """``exp(hi + lo)`` for a double-double exponent, 0 far below the underflow bound."""
    return np.where(hi < -760.0, 0.0, np.exp(hi) * (1.0 + lo))


def _prefactor(a, x, terms):
    """``x**a e**-x / Gamma(a)`` for positive ``x``, 0 at ``x = inf``.

    ``terms`` as for ``_log_prefactor``.  Where ``x**a``, ``e**-(x - s)``,
    ``1 / Gamma(a)`` and their product are normal doubles it is that product
    times ``e**-s``, with ``s = 0`` below ``x = 700`` and ``s = 700`` above,
    so ``e**-x`` need not be a normal double: within about 2.5 ulps below
    ``x = 700`` and 3.6 ulps above (``pow`` and ``exp`` round to within 0.55
    ulp).  Elsewhere it is the exponential of the double-double exponent, or
    0 where the exponent in double lies below -746.  The choice is made per
    element.
    """
    lgamma, rgamma = terms[0], terms[2]
    with np.errstate(all="ignore"):
        lx = np.log(x)
        power = a * lx
        exponent = power - x - lgamma  # in double
        shift = np.where(x < 700.0, 0.0, 700.0)
        direct = (np.abs(power) < 700.0) & (x < 1400.0) & (exponent + shift > -700.0)
        direct &= rgamma >= _TINY
        out = np.zeros_like(x)
        if direct.any():
            xd, sd = x[direct], shift[direct]
            product = xd**a * np.exp(sd - xd) * rgamma
            out[direct] = product * np.where(sd > 0.0, _EXP_M700, 1.0)
    # Below an exponent of -746 the value rounds to 0 whatever its error.
    far = ~direct & (exponent > -746.0)
    if far.any():
        out[far] = _exp_dd(*_log_prefactor(a, x[far], terms))
    return out


def _deviance(a: float, x, log_prefactor):
    """``bd0(a, x) = a ln(a / x) + x - a = C(a) - ln(x**a e**-x / Gamma(a))``.

    As a double-double; its error is that of the prefactor's exponent, except
    above shapes of 1e6, where ``|x - a| < 0.1 a`` takes the series of
    ``_deviance_near``, whose error is relative.
    """
    _, (c, c_lo), _ = _shape_terms(a)
    e, e_lo = log_prefactor
    hi, lo = _two_sum(c, -e)
    hi, lo = _two_sum(hi, lo + c_lo - e_lo)
    if a > 1e6:
        near = np.abs(x - a) < 0.1 * a
        if near.any():
            hi[near], lo[near] = _deviance_near(a, x[near])
    return hi, lo


def _deviance_near(a: float, x):
    """``bd0(a, x)`` for ``|x - a| < 0.1 a`` as ``(x - a) v - 2a (v**3/3 + v**5/5 + ...)``.

    ``v = (x - a) / (x + a)``; the first two terms are double-doubles, on ``x``
    and ``a`` scaled by a power of two to order one.
    """
    m, e = math.frexp(a)
    x = np.ldexp(x, -e)
    dlt = x - m  # exact
    s, s_lo = _two_sum(x, m)
    v = dlt / s
    p, p_lo = _two_prod(v, s)
    v_lo = ((dlt - p) - p_lo - v * s_lo) / s
    lead, lead_lo = _two_prod(dlt, v)  # (x - a) v
    lead_lo = lead_lo + dlt * v_lo
    w2, w2_lo = _two_prod(v, v)
    cube, cube_lo = _two_prod(w2, v)
    cube_lo = cube_lo + w2_lo * v + 3.0 * w2 * v_lo
    q = 2.0 * m / 3.0
    q3, q3_lo = _two_prod(3.0, q)
    q_lo = ((2.0 * m - q3) - q3_lo) / 3.0
    third, third_lo = _two_prod(q, cube)  # 2a v**3 / 3
    third_lo = third_lo + q * cube_lo + q_lo * cube
    rest = 0.0  # 2a (v**5/5 + v**7/7 + ... + v**19/19); v**21 is below 1e-26 at |v| < 0.053
    for k in range(19, 3, -2):
        rest = (rest + 1.0 / k) * w2
    rest *= 2.0 * m * cube
    hi, lo = _two_sum(lead, -third)
    hi, lo = _two_sum(hi, lo + lead_lo - third_lo - rest)
    return np.ldexp(hi, e), np.ldexp(lo, e)


def _too_deep(a: float, x: float, what: str, depth: int) -> BonusMalusError:
    return BonusMalusError(
        f"the incomplete gamma {what} at shape a={a!r} and x={x!r} needs {depth} terms,"
        f" more than the {MAX_TERMS} allowed"
    )


def _series_depth(a: float, x: float) -> int:
    """Terms of ``sum_n x**n / ((a+1)...(a+n))`` after which the rest is below the cut-off."""
    if x == 0.0:
        return 0
    log_x = math.log(x)

    def dropped(n: int) -> float:  # log of term n + 1 and its geometric tail
        log_term = (n + 1) * log_x - (math.lgamma(a + n + 2) - math.lgamma(a + 1))
        return log_term - math.log1p(-x / (a + n + 2))

    target = -_SERIES_BITS * math.log(2.0)
    lo, hi = max(0, math.ceil(x - a)), MAX_TERMS  # the terms fall from lo on
    if x < 0.5 * (a + 1):  # the geometric bound on ratios below x / (a + 1)
        hi = min(hi, math.ceil((-target + math.log(2.0)) / (math.log(a + 1) - log_x)))
    if dropped(hi) > target:
        raise _too_deep(a, x, "series", hi + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if dropped(mid) > target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _accumulate(ufunc, rows):
    """Run ``ufunc`` down the rows in place, in row order.

    ``ufunc.accumulate`` along the first axis is several times slower than one
    array op per row once rows are wider than about 256, and faster below.
    Both apply the same operations in the same order, so each column's result
    depends neither on the choice nor on the other columns.
    """
    if rows.ndim < 2 or rows.shape[1] <= 256:
        rows[...] = ufunc.accumulate(rows, axis=0)
        return rows
    for j in range(1, len(rows)):
        ufunc(rows[j - 1], rows[j], out=rows[j])
    return rows


def _row_sum(rows):
    """``np.add.accumulate(rows)[-1]``, the rows summed in row order, with no copy of wide rows."""
    if rows.shape[1] <= 256:
        return np.add.accumulate(rows, axis=0)[-1]
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _rising_series(a: float, x):
    """``sum_n x**n / ((a+1)...(a+n))`` for ``0 <= x < a + 1``.

    The terms are cumulative products of the ratios ``x / (a + j)``; those
    below 2**-_SERIES_BITS are dropped and the rest summed in order, smallest
    first, so an element's sum depends neither on the depth the largest ``x``
    sets nor on the batch.  The terms fall, so an element's dropped terms are
    its last ones and enter the sum as zeros added first: on a wide batch the
    elements up to a quarter of the largest ``x`` are summed at the depth that
    quarter needs, where that saves a quarter of the work or more.
    """
    depth = _series_depth(a, float(np.max(x)))
    if x.size > 256 and depth > 0:
        cut = 0.25 * float(np.max(x))
        shallow = _series_depth(a, cut)
        deep = x > cut
        if 4 * (shallow * x.size + depth * np.count_nonzero(deep)) <= 3 * depth * x.size:
            out = _series_sum(a, np.where(deep, 0.0, x), shallow)
            out[deep] = _series_sum(a, x[deep], depth)
            return out
    return _series_sum(a, x, depth)


def _series_sum(a: float, x, depth: int):
    """The rising series of ``x`` to ``depth`` terms, terms below 2**-_SERIES_BITS dropped."""
    if depth == 0:
        return np.ones_like(x)
    terms = _accumulate(np.multiply, x / (a + np.arange(1.0, depth + 1.0)[:, None]))
    terms *= terms >= 2.0**-_SERIES_BITS
    return 1.0 + _accumulate(np.add, terms[::-1])[-1]


def _lower_series(a: float, x, f):
    """P by the power series (DLMF 8.11.4), given the prefactor ``f``."""
    live = f > 0.0
    if not live.any():
        return f
    return f / a * _rising_series(a, np.where(live, x, 0.0))


def _fraction(a: float, x, f):
    """Q by the continued fraction (DLMF 8.9.2), given the prefactor ``f``.

    Bottom-up: ``u_{k-1} = (x - a + 2k - 1) - k (k - a) / u_k`` and ``Q = f / u_0``.
    Where ``n >= 4 max(x, a)`` the run starts from the tail's expansion
    ``u_n = n + sum_j c_j n**((1 - j) / 2)``, ``j < 6``, and elsewhere from
    ``x - a + 2n + 1``.  Its depth ``n`` is a bound, fitted with a margin of
    3.6 or more over ``a`` in (0, 20], ``x >= max(1.1, a)`` and over
    ``a > 20``, ``x >= 1.3 a``, on the depth at which truncation moves Q by
    2**-55.  It falls as ``x`` grows, so the run takes it at the region's
    smallest ``x`` for every element: no value depends on the batch.
    """
    live = f > 0.0
    if not live.any():
        return f
    x0 = max(1.1, a) if a <= 20.0 else 1.3 * a
    depth = math.ceil(8.0 + 38.0 / math.sqrt(x0) + min(a, 20.0) * math.sqrt(min(1.0, a / x0)))
    if depth > MAX_TERMS:
        raise _too_deep(a, float(np.min(x[live])), "continued fraction", depth)
    level = (x - a) + np.arange(1.0, 2.0 * depth + 2.0, 2.0)[:, None]
    u = level[depth].copy()
    if a <= 0.25 * depth:
        start = x <= 0.25 * depth
        u[start] = _fraction_tail(a, x[start], depth)
    for k in range(depth, 0, -1):
        np.divide(k * (k - a), u, out=u)
        np.subtract(level[k - 1], u, out=u)
    return f / u


def _fraction_tail(a: float, x, n: int):
    """The fraction's tail ``u_n`` for ``n >= 4 max(x, a)``, to order ``n**-2``."""
    r, a2 = math.sqrt(n), a * a
    root = np.sqrt(x)
    c2 = (4.0 * x + (8.0 - 8.0 * a)) * x + (4.0 * a2 - 1.0)  # 32 sqrt(x) c_2
    c3 = 4.0 * x * x + (1.0 - 4.0 * a2)  # 64 x c_3
    c4 = (
        (((-16.0 * x + (64.0 * a - 64.0)) * x + (128.0 * a - 96.0 * a2 - 24.0)) * x
         + (64.0 * a2 * a - 64.0 * a2 - 16.0 * a + 16.0)) * x
        + (104.0 * a2 - 16.0 * a2 * a2 - 25.0)
    )  # 2048 x**1.5 c_4
    c5 = (
        ((-16.0 * x + (32.0 * a - 32.0)) * x * x + (32.0 * a2 + 8.0 * a - 32.0 * a2 * a - 8.0)) * x
        + (16.0 * a2 * a2 - 56.0 * a2 + 13.0)
    )  # 1024 x**2 c_5
    tail = c2 / (32.0 * r) + c4 / ((2048.0 * r * n) * x)
    tail /= root
    tail += root * r + (n + 0.25 - 0.5 * a)
    tail += 0.5 * x + c3 / ((64.0 * n) * x) + c5 / ((1024.0 * n * n) * (x * x))
    return tail


def _upper_series(a: float, x):
    """Q for small x (DLMF 8.7.3): ``1 - x**a / Gamma(1 + a)`` plus the alternating remainder."""
    lgamma1p = _shape_terms(a)[2]
    # Below x = 1.1 the terms x**n / n! fall under 2**-58 by n = 20.
    n = np.arange(1.0, 21.0)[:, None]
    powers = _accumulate(np.multiply, x / -n)  # (-x)**n / n!
    h = _accumulate(np.add, (powers / (a + n))[::-1])[-1]
    e = a * np.log(x) - lgamma1p
    return -np.expm1(e) - a * np.exp(e) * h


def _erfcx(z):
    """``exp(z**2) erfc(z)`` for ``z >= 0``."""
    out = np.empty_like(z)
    small = z <= 26.0
    zs = z[small]
    sq, sq_lo = _two_prod(zs, zs)
    out[small] = np.array([math.erfc(v) for v in zs.tolist()]) * np.exp(sq) * (1.0 + sq_lo)
    if not small.all():
        r = 0.5 / np.square(z[~small])  # asymptotic series, 8 terms
        poly = np.zeros_like(r)
        for n in range(7, 0, -1):
            poly = (poly + 1.0) * (1 - 2 * n) * r
        out[~small] = (1.0 + poly) / (z[~small] * math.sqrt(math.pi))
    return out


def _temme(a: float, x, deviance):
    """The side given by Temme's expansion (DLMF 8.12.3-4): Q where ``x >= a``, else P.

    Both are ``e**-bd0 (erfcx(sqrt(bd0)) / 2 +- R / sqrt(2 pi a))`` with
    ``R = sum_k c_k(eta) a**-k`` and ``eta = sqrt(2 bd0 / a)`` signed as ``x - a``.
    """
    v, v_lo = deviance
    v = np.maximum(v, 0.0)
    sign = np.where(x >= a, 1.0, -1.0)
    coef = _TEMME.T @ a ** -np.arange(_TEMME.shape[0], dtype=float)
    eta = sign * np.sqrt(2.0 * v / a)
    # Estrin's scheme, element by element: pair the terms and square eta
    # until one term is left; the zero padding adds exact zeros.
    r = np.concatenate([coef, np.zeros(32 - coef.size)])[:, None]
    power = eta
    while len(r) > 1:
        r = r[0::2] + r[1::2] * power
        power = power * power
    r = r[0]
    body = 0.5 * _erfcx(np.sqrt(v)) + sign * r / math.sqrt(2.0 * math.pi * a)
    return _exp_dd(-v, -v_lo) * body


def _incomplete_gamma(a: float, x, upper: bool):
    """Regularized ``P(a, x)``, or ``Q(a, x)`` when ``upper``, for one finite shape ``a > 0``.

    ``x`` is a 1-d array of positive finite arguments.
    """
    if x.size > _BLOCK:
        blocks = range(0, x.size, _BLOCK)
        return np.concatenate([_incomplete_gamma(a, x[i : i + _BLOCK], upper) for i in blocks])
    gives_q = x >= a  # the side each region gives; Temme's gives Q above a
    fraction = (x > 1.1) & gives_q
    # The small-x series serves [exp(-0.4 / a), 0.5] and [a / 1.1, 1.1].
    lo, cut = math.exp(-0.4 / a), a / 1.1
    small_x = ((x >= lo) & (x <= 0.5)) | ((x >= cut) & (x <= 1.1))
    temme = np.abs(x - a) < 0.3 * a if a > 20.0 else None
    if temme is not None:
        fraction &= ~temme
    series = ~(fraction | small_x)
    if temme is not None:
        series &= ~temme
    gives_q |= small_x
    out = np.empty_like(x)
    with np.errstate(all="ignore"):
        if small_x.any():
            out[small_x] = _upper_series(a, x[small_x])
        terms = _shape_terms(a)[0]
        f = np.zeros_like(x)  # x**a e**-x / Gamma(a), where the fraction or the series needs it
        needed = fraction | series
        if needed.any():
            f[needed] = _prefactor(a, x[needed], terms)
        for region, kernel in ((fraction, _fraction), (series, _lower_series)):
            if region.any():
                out[region] = kernel(a, x[region], f[region])
        if temme is not None and temme.any():
            xt = x[temme]
            out[temme] = _temme(a, xt, _deviance(a, xt, _log_prefactor(a, xt, terms)))
    np.subtract(1.0, out, out=out, where=~gives_q if upper else gives_q)
    return out


def _standardized(x, shape: float, scale):
    """``x / scale`` in float64, and the mask of valid parameters, broadcast together."""
    x = np.asarray(x)
    scale = np.asarray(scale)
    y = np.asarray(x / scale, dtype=np.promote_types(x.dtype, np.float64))
    valid = np.broadcast_to((shape > 0) & (scale > 0), y.shape)
    return y, valid


def gamma_cdf(x, shape: float, scale, upper: bool = False):
    """Gamma CDF at ``x``, or the survival function when ``upper``."""
    y, valid = _standardized(x, shape, scale)
    inside = valid & (y > 0) & (y < np.inf)
    edge = valid & ((y <= 0) if upper else (y >= np.inf))
    out = np.zeros(y.shape)
    out[~valid | np.isnan(y)] = np.nan
    out[edge] = 1.0
    if inside.any():
        out[inside] = _incomplete_gamma(float(shape), y[inside], upper)
    return out[()]


def poisson_cdf(k, mean, upper: bool = False):
    """Poisson CDF at ``k``, or the survival function when ``upper``.

    ``P(N <= k) = Q(k + 1, mean)``, one kernel call per distinct ``k``.
    """
    k, mean = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(mean))
    valid = mean >= 0
    inside = valid & (k >= 0) & (k < np.inf)
    edge = valid & ((k < 0) if upper else (k >= np.inf))
    out = np.zeros(k.shape)
    out[edge] = 1.0
    out[~valid | np.isnan(k)] = np.nan
    counts = np.floor(k[inside])
    m = np.asarray(mean[inside], dtype=float)
    values = np.where(m == 0.0, float(not upper), float(upper))  # no mass above 0, or all at inf
    proper = (m > 0.0) & (m < np.inf)
    for count in np.unique(counts[proper]):
        at = proper & (counts == count)
        values[at] = _incomplete_gamma(count + 1.0, m[at], not upper)
    out[inside] = values
    return out[()]
