"""Value indexes over data vectors: build, probe, (de)serialize."""

from .segment import (N_SEGMENT_RECORDS, check_segment, decode_segment,
                      encode_segment, keys_from_blob, keys_to_blob)
from .vindex import (ValueIndex, build_value_index,
                     build_value_index_from_codes, count_in_ranges,
                     key_code, merge_codings, select_keep)

__all__ = [
    "N_SEGMENT_RECORDS",
    "ValueIndex",
    "build_value_index",
    "build_value_index_from_codes",
    "check_segment",
    "count_in_ranges",
    "decode_segment",
    "encode_segment",
    "keys_from_blob",
    "key_code",
    "keys_to_blob",
    "merge_codings",
    "select_keep",
]
