"""Golden verdicts of the four sampling checkers.

Each case pins the `verdict_json` summary and a sha256 over every judged
item's initial state, partner, divergence series, fit and note, so any
change to drawing, integration, dense output, output mapping, fitting or
judging shows up as a mismatch.  The values were recorded with the serial
checker pipeline; a batched or reordered pipeline must reproduce them bit for
bit.

To re-record after an intended change of results, run this file as a script
(``PYTHONPATH=src python tests/test_pipeline_golden.py``) and paste its output
over `GOLDEN`.
"""

import hashlib
import json

import numpy as np
import pytest

from occtl.contraction import (
    SamplingPlan, check_oes_equilibrium, check_oes_variational,
    check_output_contraction, check_partial_contraction, verdict_json,
)
from occtl.sysmodel import builtin_system

SYSTEMS = ("lti-remark1", "lti-remark1-badout", "ex1-timevarying",
           "ex2-timeinvariant")
CHECKERS = {"contraction": check_output_contraction,
            "partial": check_partial_contraction,
            "oes": check_oes_variational}
SEEDS = (5, 2 ** 63 + 11)

#: root of 3y = cos(y) - sin(y), the output equilibrium of ex2, as a literal
#: so the golden values do not depend on a root finder
EX2_Y_STAR = 0.2432386258829211

#: the equilibrium runs: system, y_star and reference initial state
EQUILIBRIA = {"lti-remark1": (0.0, (0.5, -0.25)),
              "ex2-timeinvariant": (EX2_Y_STAR, None)}


def _plan(seed: int) -> SamplingPlan:
    return SamplingPlan(box=((-5.0, 5.0), (-5.0, 5.0)), pairs=3, seed=seed,
                        t0=0.0, tf=4.0)


def _cases():
    for name in SYSTEMS:
        for kind in CHECKERS:
            for seed in SEEDS:
                yield f"{kind}/{name}/{seed}"
    for name in EQUILIBRIA:
        for seed in SEEDS:
            yield f"oes-eq/{name}/{seed}"


def _run(case: str):
    kind, name, seed = case.split("/")
    spec, plan = builtin_system(name), _plan(int(seed))
    if kind == "oes-eq":
        y_star, x_ref0 = EQUILIBRIA[name]
        return check_oes_equilibrium(spec, y_star, plan, x_ref0=x_ref0)
    return CHECKERS[kind](spec, plan)


def _feed(h, value) -> None:
    """Hash a value exactly: arrays by their float64 bytes, scalars by repr."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=np.float64)
        h.update(repr(arr.shape).encode() + arr.tobytes())
    elif isinstance(value, tuple):
        h.update(b"(")
        for v in value:
            _feed(h, v)
        h.update(b")")
    else:
        h.update(repr(value).encode())
    h.update(b";")


def items_digest(verdict) -> str:
    h = hashlib.sha256()
    for r in verdict.results:
        s = r.series
        for value in (r.index, r.x0, r.partner, s.times, s.d, s.dx0, s.dy0,
                      s.truncated, s.state_dist, r.passed, r.note):
            _feed(h, value)
        fit = r.fit
        _feed(h, None if fit is None else
              (fit.c, fit.alpha, fit.residual, fit.window, fit.c_tight,
               fit.valid, fit.n_points))
    return h.hexdigest()


def fingerprint(verdict) -> tuple[str, str]:
    return (json.dumps(verdict_json(verdict), sort_keys=True),
            items_digest(verdict))


#: case -> (verdict_json text, items digest)
GOLDEN = {
    'contraction/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 0.6480522440057163, "min_alpha": 0.8397623291171826, "pairs": 3, "truncated": 0, "witness": null}',
        '8d8d177e0c05f149df6c0858c9da37732655441bcca9f4e815870c51e3dca90d'),
    'contraction/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 0.8310225241092994, "min_alpha": 0.6372733786134865, "pairs": 3, "truncated": 0, "witness": null}',
        'f56d5409279fcb0f7c30778869e7691e9b8d297c75a3b8730bb8ea5a786dc731'),
    'partial/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 5.221394096483522, "dy0": 0.0, "max_d": 1.0048570334577946, "pair_index": 0, "partner": [3.0500292374538027, -2.141986199118584], "reason": "outputs separate to 1 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '3d7a45d4c3c9ce70152283996537db179b13b00fe8b74a157d9a268b003e2908'),
    'partial/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 2.2461801957518377, "dy0": 0.0, "max_d": 0.43227732006022057, "pair_index": 0, "partner": [-3.3008360850090526, 0.8305693563659355], "reason": "outputs separate to 0.432 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        '4d6e5be22e9144529dd4c7f083cbd7e8570672e832b03f5ced22e5d5ef885ce8'),
    'oes/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 0.9296936792181044, "min_alpha": 0.5907668476094168, "pairs": 3, "truncated": 0, "witness": null}',
        '85fc480176bff7b75330434f8edb04644c8316bc1ea28cdb542686ae0fe72521'),
    'oes/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 0.7431480286687121, "min_alpha": 0.5882436725331018, "pairs": 3, "truncated": 0, "witness": null}',
        'acb4e6881e8fe9aba03a85c44fa251159b85bb50990d56b55235813879e732bf'),
    'contraction/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "output-contraction", "max_c": 0.6480522440057163, "min_alpha": -1.1602376708828175, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.02254886446627, "c_tight": 0.6480522440057163, "dx0": 5.97111830037417, "dy0": 2.896773627032383, "max_d": 221.5971890337681, "pair_index": 0, "partner": [0.15325561042141977, -2.141986199118584], "reason": "fitted alpha -1.023 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '6f8dc990fb998db7b79f541022a57fa14234c2da16490e445b0e755ba3be8d02'),
    'contraction/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "output-contraction", "max_c": 0.8310225241092994, "min_alpha": -1.362726621386514, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.362726621386514, "c_tight": 0.38530032894038274, "dx0": 2.4341152360624516, "dy0": 0.93786540113366, "max_d": 35.68662474468985, "pair_index": 0, "partner": [-2.3629706838753926, 0.8305693563659355], "reason": "fitted alpha -1.363 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        '45b6f6d874c70c9ce41314c96f77b2376e5eda25bbec5e1d3e343499f551d15a'),
    'partial/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 5.221394096483522, "dy0": 0.0, "max_d": 142.49141552901804, "pair_index": 0, "partner": [3.0500292374538027, -2.141986199118584], "reason": "outputs separate to 142 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        'ac0b8a35d2967c7f45d1c00473cb888012acaab68e7130a50ff929bcc5f48f78'),
    'partial/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 2.2461801957518377, "dy0": 0.0, "max_d": 61.298073281792355, "pair_index": 0, "partner": [-3.3008360850090526, 0.8305693563659355], "reason": "outputs separate to 61.3 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        'abc9d570808e0b360fd9f048096e5a0a88d751083566a70e938c147b8685d080'),
    'oes/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "oes-variational", "max_c": 0.9296936792181044, "min_alpha": -1.409233152390583, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.409233152390583, "c_tight": 0.5086028836135102, "dx0": 1.0, "dy0": 0.5086028836135102, "max_d": 9.607605923596536, "pair_index": 0, "partner": [-0.5086028836135102, 0.861001223448621], "reason": "fitted alpha -1.409 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '040d7d6e527323208bca0c8e8bea7fd38f8c7055ff7f5b5e4e93a58656e51138'),
    'oes/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "oes-variational", "max_c": 0.7431480286687121, "min_alpha": -1.4117563274668985, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.1204416221140059, "c_tight": 0.3406139314268677, "dx0": 0.9999999999999999, "dy0": 0.12137860542142614, "max_d": 23.77350878742512, "pair_index": 0, "partner": [0.12137860542142614, -0.9926062835515145], "reason": "fitted alpha -1.12 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        'b93d5a90544ee4f3cac929fe16fc6aa674209b108bef1987892917e80567f40f'),
    'contraction/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.35957241426739, "min_alpha": 4.546396750393962, "pairs": 3, "truncated": 3, "witness": null}',
        '0b2ed11d945b2dd2f9ff6cc7d61f3c771caf8299f2d7ebc8a6d8bb451e9be841'),
    'contraction/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.4132247197256746, "min_alpha": 2.8925449817284585, "pairs": 3, "truncated": 3, "witness": null}',
        '959f52c3f0e49bfe61794fe025932929c622e96758c0b73156e46bb80ce14859'),
    'partial/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 3, "witness": null}',
        '1462ccc0a1fd0c791a3ff31fb3187d9a6cfdaee8c71798e49c4d538a9b00d8be'),
    'partial/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 3, "witness": null}',
        '4515453eb215cc6153b93177d2c41137b9cc1f0950dcea35a44533c470e78da2'),
    'oes/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 822.7346973591137, "min_alpha": 5.343329266987886, "pairs": 3, "truncated": 3, "witness": null}',
        '5bfc380202a9df3d67ea49cf6b01c283c53b5547ae42c5d0c082c8dad67f198c'),
    'oes/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 595.6672468590576, "min_alpha": 3.032346034206096, "pairs": 3, "truncated": 3, "witness": null}',
        '122af71370aea88a91f06a5dc5f1aae9bb371dbd4e66de417d94ccec12975af0'),
    'contraction/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.8189682835938614, "min_alpha": 4.216325879694759, "pairs": 3, "truncated": 0, "witness": null}',
        '7646b89e441caa7fe8f99860066bd563ba5498f269006bba3d25a9ff699ebaa3'),
    'contraction/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 3.090344781576742, "min_alpha": 4.171019335976358, "pairs": 3, "truncated": 0, "witness": null}',
        'baf89e5f9773ac7f462586402881419f6e2d5926f24316ffeebf598aa767b8f9'),
    'partial/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": null}',
        '3088e2cfa43a72d2280a3b7b98dbc892da8fd008278757f89e93cd5446527698'),
    'partial/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": null}',
        '0cd2dfd409be57d782bc9f20ea932aa613de0fb078140b5a3db679949beb394d'),
    'oes/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 2.344983109802525, "min_alpha": 4.222987676667361, "pairs": 3, "truncated": 0, "witness": null}',
        'ba1756a962b0c24c5d574887c6ee56baab56df8ab39695548970cf8454633eb8'),
    'oes/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 2.910180700456204, "min_alpha": 4.102506119428113, "pairs": 3, "truncated": 0, "witness": null}',
        '054decfb3801b57f9e8e79c8bbe5b6ad590517a6e2e6dffa5b0c77880db5cf6b'),
    'oes-eq/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 1.1224245811577074, "min_alpha": 0.95746919614261, "pairs": 3, "truncated": 0, "witness": null}',
        'e89b6af4b8f8e8bb56c1517932f03e438b77c96274c760837a68672cc79dc975'),
    'oes-eq/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 0.7092543406824418, "min_alpha": 0.9942808431562364, "pairs": 3, "truncated": 0, "witness": null}',
        '34b0fc6d257aa8209d082d0ccdd77ee12f291956194f692575fedc5d2e5f21aa'),
    'oes-eq/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 1.4866520068540607, "min_alpha": 4.217738888931688, "pairs": 3, "truncated": 0, "witness": null}',
        'decd31213d9ec892b035a6516db9c903c51ee6b9830da3c3dce8021d12d4012f'),
    'oes-eq/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 3.4944023674181093, "min_alpha": 4.159683683695962, "pairs": 3, "truncated": 0, "witness": null}',
        'bc243b2a1bf3f91dcb0dd8f4c252a6acf838dc405e38b286179eacb5a76137a1'),
}


@pytest.mark.parametrize("case", list(_cases()))
def test_verdict_and_items_match_golden(case):
    summary, digest = fingerprint(_run(case))
    assert json.loads(summary) == json.loads(GOLDEN[case][0])
    assert summary == GOLDEN[case][0]
    assert digest == GOLDEN[case][1]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in _cases():
        summary, digest = fingerprint(_run(case))
        print(f"    {case!r}: (\n        {summary!r},\n        {digest!r}),")
    print("}")
