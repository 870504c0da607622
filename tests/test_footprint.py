import pytest

from healthmap import estimate, serialize, synthesize_map
from healthmap.codec import image_length
from healthmap.errors import InvalidCoreCountError


def test_eight_core_estimate():
    est = estimate(8)
    assert est.modules == 138
    assert est.diag_resources == 414
    assert est.dependencies == 138
    assert est.faults == 276
    assert est.detections == 2760
    assert est.total_shm_bytes == 82418
    assert est.rm_bytes == 966


def test_single_core_estimate():
    assert estimate(1).total_shm_bytes == 15554


def test_nonpositive_core_count_rejected():
    for bad in (0, -1):
        with pytest.raises(InvalidCoreCountError):
            estimate(bad)


def test_core_count_past_the_header_rejected():
    # the header counts R = 48 C + 30 diag resources in a u16 field
    assert estimate(1364).diag_resources == 0xFFDE
    for bad in (1365, 10 ** 5000):
        with pytest.raises(InvalidCoreCountError):
            estimate(bad)


def test_total_matches_record_arithmetic():
    est = estimate(8)
    assert est.total_shm_bytes == image_length(
        est.modules, est.diag_resources, est.dependencies, est.faults,
        est.detections)
    assert est.total_shm_bytes == (32 + 25 * 138 + 13 * 414 + 9 * 138
                                   + 12 * 276 + 25 * 2760)


@pytest.mark.parametrize("cores", [1, 2, 8, 64])
def test_synthesized_map_serializes_to_estimated_size(cores):
    est = estimate(cores)
    hm = synthesize_map(cores)
    assert len(hm.modules) == est.modules
    assert len(hm.diag_resources) == est.diag_resources
    assert len(hm.dependencies) == est.dependencies
    assert len(hm.faults) == est.faults
    assert len(hm.detections) == est.detections
    assert len(serialize(hm)) == est.total_shm_bytes


def test_render_contains_total_and_rm_lines():
    out = estimate(8).render()
    assert "Total 82418" in out
    assert "RM 138 x 7 = 966 bytes" in out
    assert out.splitlines()[0] == "Cores: 8"
