import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasproc.model import (
    ContactCurve,
    EmpiricalCloud,
    IsotropicGaussian,
    ParseError,
    PointPattern,
    TasParameters,
    UniformInterval,
    ValidationError,
    Window,
    read_pattern,
    read_window_json,
    write_pattern,
    write_window_json,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestWindow:
    def test_volume_matches_hand_computed_boxes(self):
        assert Window([-1], [1]).volume == 2.0
        assert Window([0, 0], [2, 3]).volume == 6.0
        assert Window([-1, -1, -1], [1, 2, 3]).volume == 2 * 3 * 4

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            Window([1], [1])
        with pytest.raises(ValidationError):
            Window([0, 0], [1, -1])

    def test_contains_and_dilate(self):
        w = Window([-1, -1], [1, 1])
        assert w.contains([[0, 0], [1, 1], [1.5, 0]]).tolist() == [True, True, False]
        assert w.dilate(0.5).volume == pytest.approx(9.0)
        assert w.erode(0.5).volume == pytest.approx(1.0)

    def test_grid_points_cover_window(self):
        w = Window([0, 0], [1, 1])
        pts = w.grid_points(400)
        assert pts.shape == (400, 2)
        assert np.all(w.contains(pts))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(finite, finite).filter(lambda b: b[0] < b[1]),
                    min_size=1, max_size=3),
           st.dictionaries(st.text(), st.one_of(finite, st.integers(),
                                                st.booleans(), st.text())))
    def test_json_roundtrip(self, bounds, metadata):
        w = Window([lo for lo, _ in bounds], [hi for _, hi in bounds])
        buf = io.StringIO()
        write_window_json(w, buf, metadata=metadata)
        buf.seek(0)
        w2, meta = read_window_json(buf)
        assert w2 == w
        assert meta == metadata


class TestClusterDistributions:
    def test_uniform_requires_positive_halfwidth(self):
        with pytest.raises(ValidationError):
            UniformInterval(0.0)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_scale_must_be_finite_and_positive(self, value):
        with pytest.raises(ValidationError, match="finite and > 0"):
            UniformInterval(value)
        with pytest.raises(ValidationError, match="finite and > 0"):
            IsotropicGaussian(2, value)

    def test_gaussian_dimensions(self):
        g = IsotropicGaussian(2, 0.5)
        assert g.dimension == 2
        assert g.effective_radius == pytest.approx(3.0)

    def test_cloud_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            EmpiricalCloud(np.empty((0, 2)))

    def test_cloud_effective_radius(self):
        c = EmpiricalCloud([[3, 4], [0, 1]])
        assert c.effective_radius == pytest.approx(5.0)


class TestTasParameters:
    def test_validation(self):
        mu0 = UniformInterval(1)
        with pytest.raises(ValidationError):
            TasParameters(0.0, 1.0, mu0)
        with pytest.raises(ValidationError):
            TasParameters(1.2, 1.0, mu0)
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                TasParameters(0.5, lam, mu0)


class TestPatternCsv:
    def test_parse_unlabelled_1d(self):
        pattern = read_pattern("x\n0.5\n-0.3\n", Window([-1], [1]))
        assert len(pattern) == 2
        assert pattern.points[:, 0].tolist() == [0.5, -0.3]
        assert pattern.labels is None

    def test_parse_cluster_column(self):
        text = "x,cluster\n0.1,1\n0.2,1\n0.9,2\n"
        pattern = read_pattern(text, Window([-1], [1]))
        assert pattern.labels == ("1", "1", "2")
        assert set(pattern.cluster_sizes().values()) == {2, 1}

    def test_out_of_window_rejected(self):
        with pytest.raises(ValidationError):
            read_pattern("x\n2.0\n", Window([-1], [1]))

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            read_pattern("x\n0.1\nnot-a-number\n", Window([-1], [1]))

    def test_empty_pattern_is_header_only(self):
        pattern = PointPattern(np.empty((0, 2)), Window([0, 0], [1, 1]))
        assert write_pattern(pattern) == "x,y\n"

    def test_labeled_two_point_pattern(self):
        w = Window([0], [10])
        pattern = PointPattern([[1.0], [2.0]], w, labels=["a", "b"])
        assert write_pattern(pattern) == "x,cluster\n1,a\n2,b\n"

    def test_write_read_write_identity_1000_points(self):
        gen = np.random.default_rng(5)
        w = Window([-1, -1], [1, 1])
        pattern = PointPattern(gen.uniform(-1, 1, (1000, 2)), w,
                               labels=[str(i % 7) for i in range(1000)])
        text = write_pattern(pattern)
        back = read_pattern(text, w)
        assert write_pattern(back) == text
        assert back.labels == pattern.labels
        # 12 significant digits of round-trip precision on the coordinates
        assert np.allclose(back.points, pattern.points, rtol=1e-11, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            read_pattern("x,y\n0,0\n", Window([-1], [1]))

    def test_labels_with_csv_specials_round_trip(self):
        w = Window([0], [10])
        pattern = PointPattern([[1.0], [2.0]], w, labels=["a,b", 'say "hi"'])
        text = write_pattern(pattern)
        assert text == 'x,cluster\n1,"a,b"\n2,"say ""hi"""\n'
        assert read_pattern(text, w).labels == pattern.labels

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\n", "a\0b"])
    def test_label_with_line_break_or_nul_rejected(self, label):
        pattern = PointPattern([[1.0]], Window([0], [10]), labels=[label])
        with pytest.raises(ValidationError, match="line breaks"):
            write_pattern(pattern)

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4\n", "x,y\n1,2\n\n3,4\n", "x,y\n1,2\n3,4",
        "x,y\n 1 , 2 \n", "x,y\n+1.,-.5e1\n", "x,y\n1_0,2\n",
        'x,y\n1,"2"\n', "x,y\n\u0661,2\n", "x,y\n1,2\r\n3,4\r\n",
        "x,y\n1,2\n \n3,4\n", "x,y\n1,2,\n",
        "x,y\n1,2\n3\n", "x,y\n1,2\n3,4,5\n", "x,y\n1,2 3\n",
        "x,y\n#1,2\n", "x,y\n\n\n", "x,y\n  \n", "x\n1\n2\n",
    ])
    def test_unlabelled_rows_parse_as_the_csv_reader_does(self, text):
        # Reference: the csv reader, blank rows skipped, float() per field.
        header, *rows = [row for row in csv.reader(io.StringIO(text)) if row]
        d = len(header)
        w = Window([-20.0] * d, [20.0] * d)
        try:
            if any(len(row) != d for row in rows):
                raise ValueError("ragged")
            expected = np.array([[float(v) for v in row] for row in rows],
                                dtype=float).reshape(-1, d)
        except ValueError:
            with pytest.raises(ParseError):
                read_pattern(text, w)
        else:
            assert read_pattern(text, w).points.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
               st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
               max_size=8)),
           st.data())
    def test_write_read_write_property(self, rows, data):
        d = len(rows[0]) if rows else 2
        w = Window([-1.0] * d, [1.0] * d)
        labels = data.draw(st.lists(
            st.text(st.characters(exclude_characters="\r\n\0")),
            min_size=len(rows), max_size=len(rows)))
        pattern = PointPattern(np.reshape(rows, (-1, d)), w, labels=labels)
        text = write_pattern(pattern)
        back = read_pattern(io.StringIO(text), w)
        assert write_pattern(back) == text
        assert back.labels == pattern.labels


class TestContactCurve:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            ContactCurve([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            ContactCurve([1.0, 2.0], [0.5, 1.5])

    def test_csv_roundtrip(self):
        curve = ContactCurve([0.5, 1.0, 2.0], [0.9, 0.5, 0.1])
        buf = io.StringIO()
        curve.to_csv(buf)
        buf.seek(0)
        back = ContactCurve.from_csv(buf)
        assert np.array_equal(back.radii, curve.radii)
        assert np.array_equal(back.values, curve.values)
