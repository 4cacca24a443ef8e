"""Real-codec dispatch and memoisation."""

import numpy as np
import pytest

from repro.core.codecs import (
    CodecConfig,
    clear_codec_cache,
    real_compress,
    real_decompress,
)
from repro.core.designs import CompressionDesign, Placement, design
from repro.dpu.specs import Algo
from repro.errors import OutputOverflowError, UnsupportedDataError


CFG = CodecConfig()


class TestDispatch:
    @pytest.mark.parametrize("label", ["SoC_DEFLATE", "SoC_zlib", "SoC_LZ4"])
    def test_lossless_roundtrip(self, label, text_payload):
        dsg = design(label)
        result = real_compress(dsg, text_payload, CFG)
        data, _stage = real_decompress(dsg.algo, result.payload)
        assert data == text_payload
        assert result.original_bytes == len(text_payload)

    def test_lossless_accepts_ndarray(self):
        arr = np.arange(100, dtype=np.int32)
        result = real_compress(design("SoC_DEFLATE"), arr, CFG)
        data, _ = real_decompress(Algo.DEFLATE, result.payload)
        assert data == arr.tobytes()

    def test_lossless_rejects_other_types(self):
        with pytest.raises(UnsupportedDataError):
            real_compress(design("SoC_DEFLATE"), 12345, CFG)

    def test_sz3_requires_ndarray(self, text_payload):
        with pytest.raises(UnsupportedDataError):
            real_compress(design("SoC_SZ3"), text_payload, CFG)

    def test_zlib_reports_stage_bytes(self, text_payload):
        result = real_compress(design("C-Engine_zlib"), text_payload, CFG)
        assert result.cengine_stage_bytes == len(result.payload) - 6

    def test_sz3_placement_changes_backend(self, smooth_field):
        soc = real_compress(design("SoC_SZ3"), smooth_field, CFG)
        ce = real_compress(design("C-Engine_SZ3"), smooth_field, CFG)
        assert soc.payload[8] != ce.payload[8]  # backend id differs

    def test_sz3_decompress_reports_stage_bytes(self, smooth_field):
        result = real_compress(design("C-Engine_SZ3"), smooth_field, CFG)
        data, stage = real_decompress(Algo.SZ3, result.payload)
        assert stage == result.cengine_stage_bytes
        assert data.shape == smooth_field.shape


class TestMemoisation:
    def test_identical_inputs_share_result(self, text_payload):
        clear_codec_cache()
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_DEFLATE"), bytes(text_payload), CFG)
        assert a is b  # same cached object

    def test_different_design_not_shared(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_LZ4"), text_payload, CFG)
        assert a is not b

    def test_different_data_not_shared(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_DEFLATE"), text_payload + b"!", CFG)
        assert a is not b

    def test_ndarray_fingerprint_includes_shape(self):
        flat = np.zeros(16, dtype=np.float32)
        square = np.zeros((4, 4), dtype=np.float32)
        a = real_compress(design("SoC_SZ3"), flat, CFG)
        b = real_compress(design("SoC_SZ3"), square, CFG)
        assert a is not b

    def test_clear_cache(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        clear_codec_cache()
        b = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        assert a is not b
        assert a.payload == b.payload

    def test_decompress_memoised(self, text_payload):
        result = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        a = real_decompress(Algo.DEFLATE, result.payload)
        b = real_decompress(Algo.DEFLATE, result.payload)
        assert a is b

    def test_cached_sz3_array_is_read_only(self, smooth_field):
        # Every caller of the same payload shares the cached array, so a
        # caller must not be able to change what the next one receives.
        result = real_compress(design("SoC_SZ3"), smooth_field, CFG)
        first, _ = real_decompress(Algo.SZ3, result.payload)
        expected = first.copy()
        with pytest.raises(ValueError):
            first[0] = 1e9
        second, _ = real_decompress(Algo.SZ3, result.payload)
        assert np.array_equal(second, expected)


class TestOutputBound:
    @pytest.mark.parametrize("algo", list(Algo), ids=lambda a: a.value)
    def test_bound_enforced_on_miss_and_hit(self, algo, text_payload, smooth_field):
        data = smooth_field if algo is Algo.SZ3 else text_payload
        payload = real_compress(CompressionDesign(algo, Placement.SOC), data, CFG).payload
        limit = data.nbytes if algo is Algo.SZ3 else len(data)
        with pytest.raises(OutputOverflowError):
            real_decompress(algo, payload, max_output=limit - 1)
        real_decompress(algo, payload, max_output=limit)  # exact fit
        with pytest.raises(OutputOverflowError):
            real_decompress(algo, payload, max_output=limit - 1)
