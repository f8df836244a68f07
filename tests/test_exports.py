"""The package export list: every name resolves, once, in sorted order."""

import cdkit


def test_all_names_resolve_once_and_sorted():
    names = cdkit.__all__
    missing = [name for name in names if not hasattr(cdkit, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_builders_and_solver_steps_live_in_their_modules():
    # the root keeps the solvers, cones, operator and sketch types, results
    # and exceptions; the problem builders and data helpers, and the solver
    # steps, are imported from the module that defines them
    import cdkit.core
    import cdkit.problems
    import cdkit.sdp

    homes = {
        cdkit.problems: (
            "add_noise_snr", "build_matcomp", "build_orthant_quadratic",
            "build_phase_retrieval", "build_trace_toy", "read_pgm",
            "recovery_error",
        ),
        cdkit.core: ("line_search_step", "ray_minimize"),
        cdkit.sdp: ("greedy_step",),
    }
    for module, names in homes.items():
        for name in names:
            assert callable(getattr(module, name))
            assert name not in cdkit.__all__
