"""Exception types shared across the package."""


class MidlinesError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBox(MidlinesError):
    """A box or midline pair has collapsed to zero length or zero area."""


class OutOfBounds(MidlinesError):
    """An annotation's centre lies outside its image (raised by encode_image)."""


class ShapeMismatch(MidlinesError):
    """Array shapes disagree with each other or with a manifest."""


class NonBinaryGroundTruth(MidlinesError):
    """A ground-truth heatmap contains values other than 0 and 1."""


class KinkProximity(MidlinesError):
    """A finite-difference check was requested too close to a non-smooth point."""


class UnknownClass(MidlinesError):
    """A detection names a class that is not in the ground-truth vocabulary."""


class EmptyFile(MidlinesError):
    """An annotation file contains no usable lines (strict parsing only)."""


class AllLinesMalformed(MidlinesError):
    """An annotation file has lines, but none of them parse."""
