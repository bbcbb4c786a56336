"""Seeded streams: the range of a master seed."""

import pytest

from hawk.rng import derive_seed, seed_sequence, stream


class TestMasterSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_refused(self, seed):
        # A seed used to be masked to 64 bits, so -1 drew the stream of 2**64 - 1.
        with pytest.raises(ValueError, match=r"'master_seed' must be in \[0, 2\*\*64\)"):
            seed_sequence(seed, "tag")
        with pytest.raises(ValueError, match="master_seed"):
            stream(seed, "tag")

    def test_range_ends_accepted(self):
        last = 2**64 - 1
        assert stream(last, "tag").random() != stream(0, "tag").random()
        assert 0 <= derive_seed(last, "tag") <= last
