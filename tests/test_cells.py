"""Cell-partition tests: block structure, per-cell prime counts against
direct primality, singleton scans against a twin-prime oracle, the counting
statistic, and the gap-compatible subsequence DP against brute force."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import cells, cli
from sievelab.errors import ParameterConditionError, ResourceBudgetError
from sievelab.primes import sieve_range
from sievelab.tuples import densest_tuple


class TestPartition:
    def test_theta_half_gives_a4(self):
        part = cells.partition_tuple(densest_tuple(10), theta=0.5, m=1)
        assert part.a == 4
        assert part.n_cells == 5
        assert part.cell_size == 2

    def test_theta_one_gives_a2(self):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        assert part.a == 2
        assert part.n_cells == 3
        assert all(c.k == 1 for c in part.cells)

    def test_two_thirds_theta_not_bumped_by_float_noise(self):
        # 2 / (2/3) = 3.0000000000000004 in floats; the ceiling must be 3
        part = cells.partition_tuple(densest_tuple(8), theta=2 / 3, m=1)
        assert part.a == 3
        assert part.n_cells == 4

    def test_cells_are_contiguous_sorted_blocks(self):
        t = densest_tuple(10)
        part = cells.partition_tuple(t, theta=0.5, m=1)
        pos = 0
        for cell in part.cells:
            assert cell.offsets == t.offsets[pos : pos + part.cell_size]
            pos += part.cell_size
        assert pos == t.k

    def test_free_form_split(self):
        part = cells.split_into_cells((0, 2), 2)
        assert part.n_cells == 2 and part.theta is None and part.a is None
        assert part.cells[0].offsets == (0,) and part.cells[1].offsets == (2,)
        with pytest.raises(ParameterConditionError, match="divide"):
            cells.split_into_cells((0, 2, 6), 2)

    def test_cells_partition_offsets(self):
        t = densest_tuple(10)
        part = cells.partition_tuple(t, theta=0.5, m=1)
        rebuilt = [h for cell in part.cells for h in cell]
        assert rebuilt == list(t.offsets)
        flat = set()
        for cell in part.cells:
            assert not flat & set(cell.offsets)
            flat |= set(cell.offsets)
        assert flat == set(t.offsets)

    def test_divisibility_error_suggests_nearest_k(self):
        with pytest.raises(ParameterConditionError, match="nearest valid k is 10"):
            cells.partition_tuple(densest_tuple(11), theta=0.5, m=1)
        with pytest.raises(ParameterConditionError, match="nearest valid k is 15"):
            cells.partition_tuple(densest_tuple(14), theta=0.5, m=1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterConditionError, match="theta"):
            cells.partition_tuple((0, 2, 6), theta=0.0, m=1)
        with pytest.raises(ParameterConditionError, match="theta"):
            cells.partition_tuple((0, 2, 6), theta=1.5, m=1)
        with pytest.raises(ParameterConditionError, match="m must"):
            cells.partition_tuple((0, 2, 6), theta=1.0, m=0)


class TestCellCounts:
    def test_known_prime_quadruple(self):
        part = cells.partition_tuple((0, 2, 6, 8), theta=2 / 3, m=1)
        assert part.n_cells == 4  # singleton cells
        table = sieve_range(2, 40)
        res = cells.cell_prime_counts(part, 5, table)
        assert res.counts == (1, 1, 1, 1)  # 5, 7, 11, 13
        assert res.n_occupied == 4 and res.n_singleton == 4

    def test_pair_cells_count_known_primes(self):
        part = cells.partition_tuple((0, 2, 6, 8, 12, 18), theta=1.0, m=1)
        table = sieve_range(2, 40)
        res = cells.cell_prime_counts(part, 5, table)
        # cells {0,2}, {6,8}, {12,18}: entries (5,7), (11,13), (17,23)
        assert res.counts == (2, 2, 2)
        assert res.n_occupied == 3 and res.n_singleton == 0

    def test_counts_additive_over_cells(self):
        part = cells.partition_tuple((0, 2, 6, 8, 12, 18), theta=1.0, m=1)
        table = sieve_range(2, 2000)
        for n in range(3, 1500, 37):
            res = cells.cell_prime_counts(part, n, table)
            direct = sum(
                1 for h in part.offsets if table.is_prime_at(n + h)
            )
            assert res.total == direct

    def test_all_zero_possible(self):
        part = cells.partition_tuple((0, 2, 6, 8), theta=2 / 3, m=1)
        table = sieve_range(2, 200)
        res = cells.cell_prime_counts(part, 115, table)  # 115,117,121,123
        assert res.counts == (0, 0, 0, 0)

    def test_table_range_enforced(self):
        part = cells.partition_tuple((0, 2, 6, 8), theta=2 / 3, m=1)
        table = sieve_range(2, 100)
        with pytest.raises(ParameterConditionError, match="outside table"):
            cells.cell_prime_counts(part, 95, table)


class TestSingletonScan:
    def twin_positions(self, lo, hi):
        table = sieve_range(lo, hi + 3)
        return [
            n
            for n in range(lo, hi + 1)
            if table.is_prime_at(n) and table.is_prime_at(n + 2)
        ]

    def test_pair_cells_recover_twin_primes(self):
        part = cells.split_into_cells((0, 2), 2)
        scan = cells.scan_singleton_cells(part, 3, 5000, min_singletons=2)
        assert list(scan.ns) == self.twin_positions(3, 5000)

    def test_singleton_cells_match_twin_oracle(self):
        # 3 cells over k=3 is the smallest clean fit; use offsets 0,2,6 and
        # demand 3 singletons: n, n+2, n+6 all prime
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 3, 4000, min_singletons=3)
        table = sieve_range(2, 4010)
        expect = [
            n
            for n in range(3, 4001)
            if all(table.is_prime_at(n + h) for h in (0, 2, 6))
        ]
        assert list(scan.ns) == expect

    def test_zero_quota_keeps_everything(self):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 10, 200, min_singletons=0)
        assert len(scan) == 191

    def test_quota_beyond_cells_empty(self):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 10, 5000, min_singletons=4)
        assert len(scan) == 0

    def test_residue_restriction(self):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(
            part, 3, 3000, min_singletons=3, modulus=210, residue=11
        )
        assert all(n % 210 == 11 for n in scan.ns)
        full = cells.scan_singleton_cells(part, 3, 3000, min_singletons=3)
        assert set(scan.ns) == {n for n in full.ns if n % 210 == 11}

    @pytest.mark.parametrize("modulus", [0, -6])
    def test_modulus_below_one_refused(self, modulus):
        # 0 used to scan every n, and -6 to return an empty scan
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        msg = f"modulus must be >= 1, got {modulus}$"
        with pytest.raises(ParameterConditionError, match=msg):
            cells.scan_singleton_cells(part, 3, 200, 1, modulus=modulus, residue=5)
        with pytest.raises(ParameterConditionError, match="modulus"):
            cells.cell_statistic_sum(part, 3, 200, modulus=modulus, residue=5)

    def test_residue_without_modulus_refused(self):
        # used to scan every n while the caller believed in a residue class
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        msg = "residue 5 restricts nothing without a modulus.*--modulus.*--residue"
        with pytest.raises(ParameterConditionError, match=msg):
            cells.scan_singleton_cells(part, 3, 200, 1, residue=5)
        with pytest.raises(ParameterConditionError, match=msg):
            cells.cell_statistic_sum(part, 3, 200, residue=5)

    def test_counts_rows_align(self):
        part = cells.partition_tuple((0, 2, 6, 8, 12, 18), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 3, 2000, min_singletons=2)
        table = sieve_range(2, 2030)
        for n, row in zip(scan.ns, scan.counts):
            res = cells.cell_prime_counts(part, n, table)
            assert tuple(row) == res.counts
            assert res.n_singleton >= 2

    @staticmethod
    def scan_csv(tmp_path, lo, hi, min_singletons):
        """The CSV body of the gaps command's scan of (0, 2, 6) in one cell
        per offset, its config comment lines dropped."""
        out = tmp_path / "scan.csv"
        argv = ["gaps", "--tuple", "0,2,6", "--theta", "1.0", "--lo", str(lo),
                "--hi", str(hi), "--min-singletons", str(min_singletons)]
        assert cli.main(argv + ["--output", str(out)]) == 0
        text = out.read_text()
        return text[text.index("\nn,") + 1:]

    def test_csv_shape(self, tmp_path):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 3, 500, min_singletons=3)
        text = self.scan_csv(tmp_path, 3, 500, 3)
        lines = text.strip().split("\n")
        assert lines[0] == "n,cell_0,cell_1,cell_2"
        assert len(lines) == len(scan) + 1
        assert text.endswith("\n")

    def test_empty_scan_keeps_cell_columns(self, tmp_path):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        scan = cells.scan_singleton_cells(part, 10, 200, min_singletons=4)
        assert scan.counts.shape == (0, 3)
        assert self.scan_csv(tmp_path, 10, 200, 4) == "n,cell_0,cell_1,cell_2\n"

    def test_validation_and_budget(self):
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        with pytest.raises(ParameterConditionError):
            cells.scan_singleton_cells(part, 0, 100, 1)
        with pytest.raises(ResourceBudgetError, match="SCAN_BUDGET = 200000000; narrow"):
            cells.scan_singleton_cells(part, 1, 10**10, 1)

    def test_budget_counts_the_matrix_before_sieving(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("the scan reached sieve_range")

        monkeypatch.setattr(cells, "sieve_range", refuse)
        # span 1.9e8 is within SCAN_BUDGET; 4 cells x 1.9e8 positions is not
        part = cells.partition_tuple((0, 2, 6, 8, 12, 18, 20, 26), theta=0.667, m=1)
        with pytest.raises(ResourceBudgetError) as err:
            cells.scan_singleton_cells(part, 3, 190_000_000, 2)
        msg = str(err.value)
        assert "4 cells x 189999998 positions = 759999992 count entries" in msg
        assert "SCAN_BUDGET = 200000000; narrow --lo/--hi" in msg
        # a residue class keeps the matrix small: only the span is checked
        scan_part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        with pytest.raises(AssertionError, match="reached sieve_range"):
            cells.scan_singleton_cells(scan_part, 1, 190_000_000, 1, modulus=6, residue=5)

    @pytest.mark.parametrize("modulus, residue", [(None, 0), (6, 5)])
    def test_negative_offsets_read_primality_not_wrapped_cells(self, modulus, residue):
        # n - 2 lies below the scan start: read it, do not wrap to the table's end
        part = cells.split_into_cells((-2, 0, 4, 6), 2)
        scan = cells.scan_singleton_cells(part, 3, 200, 0, modulus, residue)
        table = sieve_range(0, 300)
        ns = [n for n in range(3, 201) if not modulus or n % modulus == residue]
        oracle = [
            [sum(table.is_prime_at(n + h) for h in cell) for cell in part.cells]
            for n in ns
        ]
        assert scan.ns.tolist() == ns
        assert scan.counts.tolist() == oracle

    def test_values_below_two_count_as_no_prime_in_both_paths(self):
        # n + h reaches -1 at n = 1: the per-n count and the scan both read
        # it off a table that starts there, as no prime
        part = cells.split_into_cells((-2, 0, 4, 6), 2)
        table = sieve_range(-1, 300)
        per_n = [list(cells.cell_prime_counts(part, n, table).counts) for n in (1, 2, 3)]
        scan = cells.scan_singleton_cells(part, 1, 3, 0)
        assert scan.ns.tolist() == [1, 2, 3]
        assert per_n == scan.counts.tolist() == [[0, 2], [1, 0], [1, 1]]


class TestCellStatistic:
    def part6(self):
        return cells.partition_tuple((0, 2, 6, 8, 12, 18), theta=1.0, m=1)

    def test_statistic_matches_hand_rule(self):
        part = self.part6()
        table = sieve_range(2, 3000)
        rep = cells.cell_statistic_sum(part, 5, 2500)
        total = 0
        for n in range(5, 2501):
            res = cells.cell_prime_counts(part, n, table)
            pairs = sum(c * (c - 1) for c in res.counts)
            total += res.n_occupied - part.m - pairs
        assert rep.total == pytest.approx(total)

    def test_positive_statistic_forces_singletons(self):
        part = self.part6()
        rep = cells.cell_statistic_sum(part, 5, 4000)
        assert rep.best_n is not None
        table = sieve_range(2, 4030)
        res = cells.cell_prime_counts(part, rep.best_n, table)
        assert res.n_singleton >= part.m + 1

    def test_n_positive_counts_qualifying_positions(self):
        part = self.part6()
        rep = cells.cell_statistic_sum(part, 5, 1000)
        table = sieve_range(2, 1030)
        count = 0
        for n in range(5, 1001):
            res = cells.cell_prime_counts(part, n, table)
            pairs = sum(c * (c - 1) for c in res.counts)
            if res.n_occupied - part.m - pairs > 0:
                count += 1
        assert rep.n_positive == count

    def test_weighted_substitute_labeled(self):
        part = self.part6()
        plain = cells.cell_statistic_sum(part, 5, 800)
        weighted = cells.cell_statistic_sum(part, 5, 800, weight_fn=lambda n: 2.0)
        assert not plain.weighted and plain.label.startswith("indicator")
        assert weighted.weighted and "substitute" in weighted.label
        assert weighted.total == pytest.approx(4 * plain.total)

    def test_restricted_sum(self):
        part = self.part6()
        rep = cells.cell_statistic_sum(part, 5, 2000, modulus=30, residue=11)
        table = sieve_range(2, 2030)
        total = 0
        for n in range(5, 2001):
            if n % 30 != 11:
                continue
            res = cells.cell_prime_counts(part, n, table)
            pairs = sum(c * (c - 1) for c in res.counts)
            total += res.n_occupied - part.m - pairs
        assert rep.total == pytest.approx(total)


class TestBetaSequence:
    def test_validation(self):
        with pytest.raises(ParameterConditionError):
            cells.BetaSequence(())
        with pytest.raises(ParameterConditionError):
            cells.BetaSequence((-0.5, 1.0))
        with pytest.raises(ParameterConditionError):
            cells.BetaSequence((0.0, 1.0, 1.0))
        assert len(cells.BetaSequence((0.0, 0.5, 1.25))) == 3


class TestSubsequenceCheck:
    def brute_longest(self, vals, gap_set, tol):
        best = 1
        n = len(vals)
        for r in range(n, 0, -1):
            for combo in combinations(range(n), r):
                ok = True
                for a, b in zip(combo, combo[1:]):
                    d = vals[b] - vals[a]
                    if not any(abs(d - g) <= tol for g in gap_set):
                        ok = False
                        break
                if ok:
                    return r
        return best

    def test_uniform_steps(self):
        res = cells.beta_subsequence_check((0, 1, 2), {1.0}, 1e-9, 3)
        assert res.found and res.length == 3
        assert res.values == (0.0, 1.0, 2.0)

    def test_empty_gap_set(self):
        res = cells.beta_subsequence_check((0, 1, 2), set(), 1e-9, 2)
        assert not res.found and res.length == 1

    def test_two_step_trace(self):
        res = cells.beta_subsequence_check(
            (0.0, 0.5, 1.7), {0.5, 1.2}, 1e-6, 3
        )
        assert res.found and res.indices == (0, 1, 2)

    def test_inf_tol_sentinel_returns_everything(self):
        vals = (0.0, 0.3, 1.1, 2.0, 5.5)
        res = cells.beta_subsequence_check(vals, set(), math.inf, len(vals))
        assert res.found and res.values == vals

    def test_skipping_beats_greedy(self):
        # taking 0.4 first would dead-end; the DP must skip it
        res = cells.beta_subsequence_check(
            (0.0, 0.4, 1.0, 2.0), {1.0}, 1e-9, 3
        )
        assert res.found and res.values == (0.0, 1.0, 2.0)

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=0, max_value=8, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        gaps=st.sets(
            st.floats(min_value=0.05, max_value=4, allow_nan=False), max_size=4
        ),
    )
    def test_dp_matches_brute_force(self, data, gaps):
        vals = tuple(sorted(data))
        res = cells.beta_subsequence_check(vals, gaps, 0.07, 1)
        assert res.length == self.brute_longest(vals, gaps, 0.07)
        # and the returned chain really is compatible
        for a, b in zip(res.values, res.values[1:]):
            assert any(abs((b - a) - g) <= 0.07 for g in gaps)

    def test_validation(self):
        with pytest.raises(ParameterConditionError):
            cells.beta_subsequence_check((0, 1), {1.0}, 0.0, 1)
        with pytest.raises(ParameterConditionError):
            cells.beta_subsequence_check((0, 1), {1.0}, 1e-9, 0)

    def test_normalized_gap_proxy_integration(self):
        # feed the DP an empirical gap value set; a short arithmetic-like
        # run of normalized-gap levels must be recovered
        from sievelab.primes import normalized_gaps

        seq = normalized_gaps(10**5)
        gap_vals = set(np.round(seq.normalized[:2000], 3))
        betas = (0.0, 0.25, 0.75, 1.5)
        res = cells.beta_subsequence_check(betas, gap_vals, 0.01, 2)
        assert res.found
