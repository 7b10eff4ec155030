from wbanet.tensor import max_rel_grad_err  # noqa: F401 (test_acceptance imports it)
