"""Tests for the closed forms of homomorphic PASTA decryption."""

from repro.pasta import PASTA_4, PASTA_MICRO, PASTA_TOY, multiplicative_depth


class TestCosts:
    def test_multiplicative_depth(self):
        assert multiplicative_depth(PASTA_TOY) == 4  # 2 Feistel + cube
        assert multiplicative_depth(PASTA_MICRO) == 3
        assert multiplicative_depth(PASTA_4) == 5
