#!/usr/bin/env python3
"""Regenerate the committed fuzz seed corpora under tests/fuzz_corpus/.

The corpora themselves are committed (the fuzz.replay_* ctest smokes and
the CI fuzz job read them straight from the tree); this script is the
reproducible source for the binary ones so a format change can regrow
them instead of hand-hexing. Deterministic output, stdlib only:

    python3 tests/fuzz_corpus/make_corpus.py

Every crash_* entry under fuzz_surrogate_load is a fails-on-pre-fix
input: it reproduced an escaped std::invalid_argument or a multi-GB
allocation attempt in SurrogateTable::load before the PR-10 hardening,
and must now be rejected with cat::Error (the replay smokes pin this).
"""

import os
import struct

HERE = os.path.dirname(os.path.abspath(__file__))

MAGIC_V2 = b"CATSURR2"


def u64(v):
    return struct.pack("<Q", v)


def f64(v):
    return struct.pack("<d", v)


def wire_string(s):
    b = s.encode()
    return u64(len(b)) + b


def surr_v2(planet=0, gas=0, family=0, nose=0.3, wall=300.0, aoa=0.0,
            base="seed_case", nv=2, na=2, vmin=1000.0, vmax=2000.0,
            amin=10000.0, amax=20000.0, node=1.0, bound=0.1,
            n_channels=4, payload=True):
    """A CATSURR2 record; payload=False stops after the domain floats."""
    out = MAGIC_V2 + u64(planet) + u64(gas) + u64(family)
    out += f64(nose) + f64(wall) + f64(aoa) + wire_string(base)
    out += u64(nv) + u64(na)
    out += f64(vmin) + f64(vmax) + f64(amin) + f64(amax)
    if payload:
        for _ in range(n_channels):
            out += f64(node) * (nv * na)
            out += f64(bound) * ((nv - 1) * (na - 1))
    return out


def write(harness, name, data):
    d = os.path.join(HERE, harness)
    os.makedirs(d, exist_ok=True)
    if isinstance(data, str):
        data = data.encode()
    with open(os.path.join(d, name), "wb") as f:
        f.write(data)


def main():
    nan = float("nan")

    # --- fuzz_surrogate_load: CATSURR2 records ---------------------------
    write("fuzz_surrogate_load", "valid_v2_small", surr_v2())
    write("fuzz_surrogate_load", "valid_v2_3x4",
          surr_v2(nv=3, na=4, vmax=4000.0, amax=40000.0))
    write("fuzz_surrogate_load", "empty", b"")
    write("fuzz_surrogate_load", "bad_magic", b"NOTSURR!" + b"\0" * 64)
    write("fuzz_surrogate_load", "short_magic", b"CATS")
    # Fails-on-pre-fix: 60000x60000 claimed dims in a ~100-byte file used
    # to reach the BilinearTable constructor (a ~28.8 GB allocation
    # attempt) before the truncation was discovered element by element.
    write("fuzz_surrogate_load", "crash_v2_huge_dims_tiny_payload",
          surr_v2(nv=60000, na=60000, payload=False))
    # Fails-on-pre-fix: NaN domain edges reached CAT_REQUIRE inside the
    # SurrogateTable constructor -> std::invalid_argument escaped load().
    write("fuzz_surrogate_load", "crash_v2_nan_domain",
          surr_v2(vmin=nan, vmax=nan))
    # Fails-on-pre-fix: inverted velocity range, same escape path.
    write("fuzz_surrogate_load", "crash_v2_inverted_domain",
          surr_v2(vmin=2000.0, vmax=1000.0))
    # Fails-on-pre-fix: NaN deviation bound, same escape path.
    write("fuzz_surrogate_load", "crash_v2_nan_bounds",
          surr_v2(bound=nan))
    write("fuzz_surrogate_load", "crash_v2_negative_bounds",
          surr_v2(bound=-1.0))
    write("fuzz_surrogate_load", "crash_v2_nan_nodes", surr_v2(node=nan))
    write("fuzz_surrogate_load", "crash_v2_nan_meta", surr_v2(nose=nan))
    write("fuzz_surrogate_load", "v2_dims_zero", surr_v2(nv=0, na=0,
                                                         payload=False))
    write("fuzz_surrogate_load", "v2_dims_one", surr_v2(nv=1, na=1,
                                                        payload=False))
    write("fuzz_surrogate_load", "v2_unknown_planet",
          surr_v2(planet=99, payload=False))
    write("fuzz_surrogate_load", "v2_unknown_family",
          surr_v2(family=99, payload=False))
    write("fuzz_surrogate_load", "v2_huge_string",
          MAGIC_V2 + u64(0) + u64(0) + u64(0) + f64(0.3) + f64(300.0) +
          f64(0.0) + u64(2 ** 63) + b"x" * 32)

    # --- fuzz_serve_line: protocol request streams -----------------------
    write("fuzz_serve_line", "list", "list\n")
    write("fuzz_serve_line", "stats", "stats\n")
    write("fuzz_serve_line", "query_surrogate",
          "query shuttle_stag_point v=7000 alt=60000\n")
    write("fuzz_serve_line", "query_correlation",
          "query shuttle_stag_point tier=correlation v=7500 alt=65000\n")
    write("fuzz_serve_line", "query_unknown_scenario", "query nope\n")
    write("fuzz_serve_line", "query_nonfinite_v",
          "query shuttle_stag_point v=1e999\n")
    write("fuzz_serve_line", "query_bad_option",
          "query shuttle_stag_point frobnicate=1\n")
    write("fuzz_serve_line", "session",
          "list\nstats\nquery shuttle_stag_point v=3000 alt=30000\nquit\n")
    write("fuzz_serve_line", "oversize_line",
          "query " + "a" * 9000 + "\nstats\n")
    write("fuzz_serve_line", "many_tokens",
          "query " + "x=1 " * 100 + "\n")
    write("fuzz_serve_line", "binary_junk",
          b"qu\x00ery \xff\xfe scenario\n\x01\x02\n")
    write("fuzz_serve_line", "unterminated", "stats")
    write("fuzz_serve_line", "crlf", "list\r\nstats\r\n")

    # --- fuzz_arg_parse: numeric argv/query values -----------------------
    for name, text in [
        ("int_small", "7"), ("int_zero", "0"), ("negative", "-1"),
        ("plus_sign", "+5"), ("overflow_1e999", "1e999"),
        ("nan", "nan"), ("inf", "inf"), ("neg_inf", "-inf"),
        ("u64_overflow", "18446744073709551616"),
        ("hex_float", "0x1p4"), ("sci", "3.5e2"), ("empty", ""),
        ("leading_zeros", "007"), ("underscore", "1_000"),
        ("leading_space", " 42"), ("trailing_space", "42 "),
        ("trailing_junk", "3x"), ("dot", "."), ("tiny", "1e-320"),
    ]:
        write("fuzz_arg_parse", name, text)

    # --- fuzz_table_read: CSV text + binary-record bytes -----------------
    write("fuzz_table_read", "valid_csv", "v,alt\n1,2\n3,4\n")
    write("fuzz_table_read", "valid_csv_crlf", "v,alt\r\n1,2\r\n")
    write("fuzz_table_read", "header_only", "v,alt\n")
    write("fuzz_table_read", "ragged", "v,alt\n1,2\n3\n")
    write("fuzz_table_read", "alpha_cell", "v,alt\n1,two\n")
    write("fuzz_table_read", "overflow_cell", "v,alt\n1,1e999\n")
    write("fuzz_table_read", "empty_header", "v,,alt\n1,2,3\n")
    write("fuzz_table_read", "lone_comma", ",\n")
    write("fuzz_table_read", "empty", "")
    write("fuzz_table_read", "binary_record",
          b"CATTABLE" + wire_string("label") + u64(3) + f64(1.0) * 3 +
          f64(2.5))
    write("fuzz_table_read", "binary_huge_count",
          b"CATTABLE" + wire_string("label") + u64(2 ** 61))

    print("corpora regenerated under", HERE)


if __name__ == "__main__":
    main()
