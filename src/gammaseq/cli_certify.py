"""`certify`: the positivity certificates of P and Q and the sign verdicts of f and g."""

from . import polycert
from .cli import EXIT_OK, _emit, _frac_str


def run(args) -> int:
    target = args.target
    if target in ("P", "Q"):
        cert = polycert.numerator_certificate("f" if target == "P" else "g")
        columns = ["center", "certificate", "shifted_coefficients", "target"]
        rows = [{
            "target": target,
            "center": int(cert.center),  # the centres are integers
            "shifted_coefficients": [_frac_str(c) for c in cert.shifted_coeffs],
            "certificate": isinstance(cert, polycert.PositivityCertificate),
        }]
    else:
        verdict = polycert.tail_sign_verdict(target)
        columns = ["conclusion", "derivative_sign", "function_sign", "identity",
                   "identity_checked", "numerator_shifted_coefficients", "shift_center",
                   "target", "vanishes_at_infinity"]
        rows = [{
            "target": target,
            "identity": ("-" if verdict.derivative_sign < 0 else "")
                        + f"numerator/({polycert.DENOMINATOR_TEXT})",
            "identity_checked": verdict.identity_checked,
            "numerator_shifted_coefficients": [
                _frac_str(c) for c in verdict.numerator_certificate.shifted_coeffs
            ],
            "shift_center": _frac_str(verdict.numerator_certificate.center),
            "derivative_sign": verdict.derivative_sign,
            "vanishes_at_infinity": verdict.vanishes_at_infinity,
            "function_sign": verdict.function_sign,
            "conclusion": verdict.conclusion,
        }]
    _emit(args.format, "certify", {"target": target}, rows, dict, columns)
    return EXIT_OK
