"""Driver-style correctness check: run each queries() entry and its
oracle_sql() side-by-side over an sf dir, compare row-count + sorted values.

Usage: python tools/check_oracle.py [sf_dir] [query_name ...]
"""

import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


TABLES = ["documents", "embeddings"]


def to_pandas(result):
    import ray
    if isinstance(result, ray.data.Dataset):
        return pd.DataFrame(result.take_all())
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main(sf_dir: str, only: list[str] | None = None) -> int:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as em

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')")

    queries = em.queries()
    oracles = em.oracle_sql()
    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: rows={len(got)} (rows-only, no oracle)")
            continue
        try:
            exp = canon(con.execute(sql).fetchdf())
        except Exception as exc:
            print(f"FAIL {name}: oracle raised {exc}")
            failures += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(exp.columns)}")
            failures += 1
            continue
        if len(got) != len(exp):
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            failures += 1
            continue
        try:
            pd.testing.assert_frame_equal(
                got, exp, check_dtype=False, check_exact=False, rtol=1e-9)
        except AssertionError as exc:
            print(f"FAIL {name}: value mismatch\n{str(exc)[:500]}")
            failures += 1
            continue
        # the driver hashes raw values, so int64 vs float64 (DuckDB HUGEINT
        # sums) differs even when values are equal — flag it as a failure
        kind_mismatch = [
            c for c in got.columns
            if (pd.api.types.is_integer_dtype(got[c].dtype)
                != pd.api.types.is_integer_dtype(exp[c].dtype))
            or (pd.api.types.is_float_dtype(got[c].dtype)
                != pd.api.types.is_float_dtype(exp[c].dtype))]
        if kind_mismatch:
            print(f"FAIL {name}: dtype kind mismatch (driver hash would "
                  f"differ): "
                  + ", ".join(f"{c}: {got[c].dtype} vs {exp[c].dtype}"
                              for c in kind_mismatch))
            failures += 1
        else:
            print(f"ok   {name}: rows={len(got)} values match")
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    sys.exit(1 if main(sf, sys.argv[2:] or None) else 0)
