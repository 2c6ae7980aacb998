import math
import tracemalloc

import numpy as np
import pytest

import stochsym as st

ROOM = {
    "eta": 0.05,
    "beta": 0.005,
    "theta": 0.01,
    "t_h": 50.0,
    "t_e": -1.0,
    "g": 0.5,
    "tau": 0.1,
    "pi": 1.0,
    "kappa_bar": 0.499,
}


def room_system() -> st.AffineSystem:
    """Scalar heated-room subsystem with the reference parameters."""
    a = -2 * ROOM["eta"] - ROOM["beta"]
    return st.AffineSystem(
        A=a, B=ROOM["theta"] * ROOM["t_h"], C1=1.0, C2=1.0, D=ROOM["eta"],
        G=ROOM["g"], b=ROOM["beta"] * ROOM["t_e"],
        state_box=st.Box([20.0], [21.0]),
        input_box=st.Box([-0.01005], [0.01005]),
        internal_box=st.Box([40.0], [42.0]),
    )


def room_certificate(k_gain: float | None = None) -> st.StorageCertificate:
    kt = st.kappa_tilde_from(ROOM["kappa_bar"], 0.5, ROOM["tau"])
    e = math.exp(-kt * ROOM["tau"])
    a = -2 * ROOM["eta"] - ROOM["beta"]
    b = ROOM["theta"] * ROOM["t_h"]
    k = (-0.5 * kt - a) / b if k_gain is None else k_gain
    return st.StorageCertificate(
        M_bar=1.0, K=k, P=1.0, Q=a / b, H=ROOM["eta"] / b,
        kappa_tilde=kt, pi=ROOM["pi"],
        kappa_bar=ROOM["kappa_bar"],
        Xbar11=e * ROOM["tau"] * ROOM["eta"] ** 2,
        Xbar12=0.0, Xbar21=0.0,
        Xbar22=-ROOM["pi"] * e * ROOM["tau"] * (ROOM["theta"] * ROOM["t_h"]) ** 2,
    )


@pytest.fixture
def room():
    return room_system()


@pytest.fixture
def room_cert():
    return room_certificate()


@pytest.fixture
def noise_free_disc():
    return st.DiscretizationSpec(tau=ROOM["tau"], D_tilde=0.0, R_tilde=0.0)


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the most bytes it held allocated at once), by tracemalloc.

    numpy reports its array buffers to tracemalloc, so the peak covers them.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return out, peak
