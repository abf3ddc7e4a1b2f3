"""Closed taxonomy of modeled JVM bytecode patterns.

A pattern is a triple (operation, data type, data size); attaching a device
identifier yields the four-part key the energy model is indexed by.  The
catalog enumerates exactly 174 legal triples and classifies textual
statements (canonical descriptors or javap-style mnemonic sequences) into
them.  The catalog is built once at import time and never mutated, so it is
safe for unrestricted concurrent reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import AmbiguousPattern, UnknownPattern, shorten

# Data types and data sizes are closed sets.
DATA_TYPES = ("int", "long", "float", "double", "reference")
DATA_SIZES = ("load", "constant", "bits32", "bits64", "reference")

NUMERIC_TYPES = ("int", "long", "float", "double")

# The non-Load, non-Constant operand size a numeric type can carry:
# 32-bit constant-pool loads exist for int/float, 64-bit ones for long/double.
WIDE_SIZE = {"int": "bits32", "float": "bits32", "long": "bits64", "double": "bits64"}


@dataclass(frozen=True, order=True)
class PatternTriple:
    operation: str
    dtype: str
    dsize: str

    def render(self) -> str:
        """Canonical descriptor, e.g. ``addition:int:bits32``."""
        return f"{self.operation}:{self.dtype}:{self.dsize}"


@dataclass(frozen=True, order=True)
class PatternKey:
    triple: PatternTriple
    device: str

    def render(self) -> str:
        return f"{self.triple.render()}@{self.device}"

    def levels(self) -> tuple[str, str, str, str]:
        t = self.triple
        return (t.dsize, t.operation, t.dtype, self.device)


def _three_sizes(dtype: str) -> tuple[str, str, str]:
    return ("load", "constant", WIDE_SIZE[dtype])


def _build_catalog() -> tuple[PatternTriple, ...]:
    triples: list[PatternTriple] = []

    def add(op, dtype, dsize):
        triples.append(PatternTriple(op, dtype, dsize))

    # Binary arithmetic: every numeric type with all three operand sizes.
    for op in ("addition", "subtraction", "multiplication", "division"):
        for t in NUMERIC_TYPES:
            for s in _three_sizes(t):
                add(op, t, s)

    add("increase", "int", "constant")
    for t in NUMERIC_TYPES:
        add("negation", t, "load")
    for t in NUMERIC_TYPES:
        add("modulo", t, "load")

    # Bit operations exist for the integral types only.
    for op in (
        "bit_and",
        "bit_or",
        "bit_xor",
        "bit_complement",
        "left_bitshift",
        "right_bitshift",
        "logical_right_bitshift",
    ):
        for t in ("int", "long"):
            add(op, t, "load")

    # Primitive widening/narrowing conversions; dtype is the source type.
    for op in ("d2f", "d2i", "d2l"):
        add(op, "double", "load")
    for op in ("f2d", "f2i", "f2l"):
        add(op, "float", "load")
    for op in ("i2b", "i2c", "i2d", "i2f", "i2l", "i2s"):
        add(op, "int", "load")
    for op in ("l2d", "l2f", "l2i"):
        add(op, "long", "load")

    for t in NUMERIC_TYPES:
        for s in _three_sizes(t):
            add("variable_declaration", t, s)

    # Arrays hold one element per primitive type; allocation takes a
    # constant length, the access forms load their operands.
    for t in NUMERIC_TYPES:
        add("array_allocation", t, "constant")
    for op in ("array_load", "array_store", "array_length"):
        for t in NUMERIC_TYPES:
            add(op, t, "load")

    add("object_allocation", "reference", "reference")
    for op in (
        "object_get_field",
        "object_get_static_field",
        "object_put_field",
        "object_put_static_field",
    ):
        for t in NUMERIC_TYPES:
            add(op, t, "load")

    add("static_method_call", "int", "load")
    add("non_static_method_call", "int", "load")
    for t in NUMERIC_TYPES:
        add("return_statement", t, "load")

    add("switch_consecutive", "int", "load")
    add("switch_non_consecutive", "int", "load")

    # Conditionals: six comparison forms against numeric operands, six
    # int-vs-int forms, four reference forms, and the explicit else branch.
    for op in (
        "if_equal_numeric",
        "if_non_equal_numeric",
        "if_greater_equal_numeric",
        "if_greater_numeric",
        "if_less_equal_numeric",
        "if_less_numeric",
    ):
        for t in NUMERIC_TYPES:
            add(op, t, "load")
    for op in (
        "if_equal_int",
        "if_non_equal_int",
        "if_greater_equal_int",
        "if_greater_int",
        "if_less_equal_int",
        "if_less_int",
    ):
        add(op, "int", "load")
    for op in ("if_equal_ref", "if_non_equal_ref", "if_null_ref", "if_non_null_ref"):
        add(op, "reference", "reference")
    add("else_branch", "int", "load")

    return tuple(triples)


CATALOG: tuple[PatternTriple, ...] = _build_catalog()
_CATALOG_SET = frozenset(CATALOG)
_BY_DESCRIPTOR = {t.render(): t for t in CATALOG}

OPERATIONS: tuple[str, ...] = tuple(dict.fromkeys(t.operation for t in CATALOG))

# Operation -> reporting category, mirroring the modeled-pattern summary table.
CATEGORY_OF_OPERATION = {
    "addition": "Addition",
    "subtraction": "Subtraction",
    "multiplication": "Multiplication",
    "division": "Division",
    "modulo": "Modulo",
    "negation": "Negation",
    "increase": "Increase",
    "bit_and": "Bit Operations",
    "bit_or": "Bit Operations",
    "bit_xor": "Bit Operations",
    "bit_complement": "Bit Operations",
    "left_bitshift": "Bit Operations",
    "right_bitshift": "Bit Operations",
    "logical_right_bitshift": "Bit Operations",
    "variable_declaration": "Variable declaration",
    "array_allocation": "Array operations",
    "array_load": "Array operations",
    "array_store": "Array operations",
    "array_length": "Array operations",
    "object_allocation": "Object operations",
    "object_get_field": "Object operations",
    "object_get_static_field": "Object operations",
    "object_put_field": "Object operations",
    "object_put_static_field": "Object operations",
    "static_method_call": "Method call & return",
    "non_static_method_call": "Method call & return",
    "return_statement": "Method call & return",
    "switch_consecutive": "Switch case",
    "switch_non_consecutive": "Switch case",
    "if_equal_numeric": "If statements",
    "if_non_equal_numeric": "If statements",
    "if_greater_equal_numeric": "If statements",
    "if_greater_numeric": "If statements",
    "if_less_equal_numeric": "If statements",
    "if_less_numeric": "If statements",
    "if_equal_int": "If statements",
    "if_non_equal_int": "If statements",
    "if_greater_equal_int": "If statements",
    "if_greater_int": "If statements",
    "if_less_equal_int": "If statements",
    "if_less_int": "If statements",
    "if_equal_ref": "If statements",
    "if_non_equal_ref": "If statements",
    "if_null_ref": "If statements",
    "if_non_null_ref": "If statements",
    "else_branch": "If statements",
}
for op in ("d2f", "d2i", "d2l", "f2d", "f2i", "f2l",
           "i2b", "i2c", "i2d", "i2f", "i2l", "i2s",
           "l2d", "l2f", "l2i"):
    CATEGORY_OF_OPERATION[op] = "Type conversion"


def list_catalog() -> tuple[PatternTriple, ...]:
    """All 174 legal triples in a fixed, deterministic order."""
    return CATALOG


def is_legal(triple: PatternTriple) -> bool:
    return triple in _CATALOG_SET


# ---------------------------------------------------------------------------
# Mnemonic classification
# ---------------------------------------------------------------------------

_TYPE_PREFIX = {"i": "int", "l": "long", "f": "float", "d": "double", "a": "reference"}

_ARITH_SUFFIX = {
    "add": "addition",
    "sub": "subtraction",
    "mul": "multiplication",
    "div": "division",
    "rem": "modulo",
    "neg": "negation",
}

_BIT_MNEMONICS = {
    "iand": ("bit_and", "int"), "land": ("bit_and", "long"),
    "ior": ("bit_or", "int"), "lor": ("bit_or", "long"),
    "ixor": ("bit_xor", "int"), "lxor": ("bit_xor", "long"),
    "ishl": ("left_bitshift", "int"), "lshl": ("left_bitshift", "long"),
    "ishr": ("right_bitshift", "int"), "lshr": ("right_bitshift", "long"),
    "iushr": ("logical_right_bitshift", "int"),
    "lushr": ("logical_right_bitshift", "long"),
}

_COND_SUFFIX = {
    "eq": "equal", "ne": "non_equal", "ge": "greater_equal",
    "gt": "greater", "le": "less_equal", "lt": "less",
}

_INVOKE = {
    "invokestatic": "static_method_call",
    "invokevirtual": "non_static_method_call",
    "invokespecial": "non_static_method_call",
    "invokeinterface": "non_static_method_call",
}

_FIELD = {
    "getfield": "object_get_field",
    "getstatic": "object_get_static_field",
    "putfield": "object_put_field",
    "putstatic": "object_put_static_field",
}


def _normalize_mnemonic(token: str) -> str:
    """Strip local-variable index suffixes: ``iload_1`` -> ``iload``."""
    keep = {"ldc_w", "ldc2_w", "aconst_null"}
    if token in keep:
        return token
    base, _, suffix = token.rpartition("_")
    if base and (suffix.isdigit() or suffix == "m1"):
        # if_icmpeq and friends contain '_' but never a numeric suffix
        return base
    return token


def _classify_mnemonics(tokens: list[str]) -> PatternTriple:
    operand_sizes: list[str] = []   # sizes of value-producing instructions
    operand_types: list[str] = []
    store_type: str | None = None
    actions: list[tuple[str, str | None]] = []  # (operation, dtype or None)

    for raw in tokens:
        if raw.startswith("#") or raw.startswith("//") or raw.lstrip("-").isdigit():
            continue  # constant-pool indexes / immediate arguments
        m = _normalize_mnemonic(raw)
        p = _TYPE_PREFIX.get(m[:1])

        if m == "aconst_null":
            operand_sizes.append("constant")
            operand_types.append("reference")
        elif p and m[1:] == "load":
            operand_sizes.append("load")
            operand_types.append(p)
        elif p and m[1:] == "const":
            operand_sizes.append("constant")
            operand_types.append(p)
        elif m in ("bipush", "sipush"):
            operand_sizes.append("constant")
            operand_types.append("int")
        elif m in ("ldc", "ldc_w"):
            operand_sizes.append("bits32")
        elif m == "ldc2_w":
            operand_sizes.append("bits64")
        elif p and m[1:] == "store":
            store_type = p
        elif p and m[1:] in _ARITH_SUFFIX and p != "reference":
            actions.append((_ARITH_SUFFIX[m[1:]], p))
        elif m == "iinc":
            actions.append(("increase", "int"))
        elif m in _BIT_MNEMONICS:
            actions.append(_BIT_MNEMONICS[m])
        elif m in ("i2b", "i2c", "i2d", "i2f", "i2l", "i2s",
                   "l2d", "l2f", "l2i", "f2d", "f2i", "f2l",
                   "d2f", "d2i", "d2l"):
            actions.append((m, _TYPE_PREFIX[m[0]]))
        elif m == "newarray":
            actions.append(("array_allocation", None))
        elif p and m[1:] == "aload" and p != "reference":
            actions.append(("array_load", p))
        elif p and m[1:] == "astore" and p != "reference":
            actions.append(("array_store", p))
        elif m == "new":
            actions.append(("object_allocation", "reference"))
        elif m in _FIELD:
            actions.append((_FIELD[m], None))
        elif m in _INVOKE:
            actions.append((_INVOKE[m], "int"))
        elif p and m[1:] == "return" and p != "reference":
            actions.append(("return_statement", p))
        elif m == "tableswitch":
            actions.append(("switch_consecutive", "int"))
        elif m == "lookupswitch":
            actions.append(("switch_non_consecutive", "int"))
        elif m.startswith("if_icmp") and m[7:] in _COND_SUFFIX:
            actions.append((f"if_{_COND_SUFFIX[m[7:]]}_int", "int"))
        elif m.startswith("if_acmp") and m[7:] in _COND_SUFFIX:
            actions.append((f"if_{_COND_SUFFIX[m[7:]]}_ref", "reference"))
        elif m == "ifnull":
            actions.append(("if_null_ref", "reference"))
        elif m == "ifnonnull":
            actions.append(("if_non_null_ref", "reference"))
        elif m.startswith("if") and m[2:] in _COND_SUFFIX:
            actions.append((f"if_{_COND_SUFFIX[m[2:]]}_numeric", None))
        elif m in ("lcmp",):
            operand_types.append("long")
        elif m in ("fcmpl", "fcmpg"):
            operand_types.append("float")
        elif m in ("dcmpl", "dcmpg"):
            operand_types.append("double")
        elif m in NUMERIC_TYPES or m == "boolean" or m == "char":
            # type argument of newarray
            operand_types.append(m if m in NUMERIC_TYPES else "int")
        else:
            raise UnknownPattern(f"unsupported mnemonic {shorten(raw)}")

    if len({a[0] for a in actions}) > 1:
        raise AmbiguousPattern(
            "sequence matches several operations: "
            + ", ".join(sorted({a[0] for a in actions}))
        )

    if actions:
        operation, dtype = actions[0]
    elif store_type is not None:
        operation, dtype = "variable_declaration", store_type
    else:
        raise UnknownPattern("sequence contains no classifiable operation")

    if dtype is None:
        candidates = [t for t in operand_types if t != "reference"] or operand_types
        if not candidates:
            raise UnknownPattern(f"cannot infer data type for {operation!r}")
        dtype = candidates[-1]

    if dtype == "reference":
        dsize = "reference"
    else:
        # Two-operand rule: the non-Load operand's size labels the pattern.
        non_load = [s for s in operand_sizes if s != "load"]
        if len(set(non_load)) > 1:
            raise AmbiguousPattern(
                f"conflicting operand sizes {sorted(set(non_load))}"
            )
        dsize = non_load[0] if non_load else "load"

    # Fixed-size patterns such as allocations keep their catalog size even
    # when the sequence carries no sized operand.
    if operation in ("array_allocation", "increase") and dsize == "load":
        dsize = "constant"

    triple = PatternTriple(operation, dtype, dsize)
    if not is_legal(triple):
        raise UnknownPattern(f"{triple.render()} is not a modeled pattern")
    return triple


def classify_statement(stmt: str) -> PatternTriple:
    """Classify a canonical descriptor or mnemonic sequence into a triple.

    Descriptors have the form ``operation:dtype:dsize``; anything else is
    treated as a whitespace-separated javap mnemonic sequence.
    """
    text = stmt.strip()
    if not text:
        raise UnknownPattern("empty statement")
    if ":" in text and " " not in text:
        triple = _BY_DESCRIPTOR.get(text)
        if triple is None:
            raise UnknownPattern(f"{text!r} is not a modeled pattern")
        return triple
    return _classify_mnemonics(text.split())


def classify_trace(lines, device: str) -> Counter:
    """Classify a sequence of statements into per-key repeat counts.

    Returns a ``Counter`` keyed by :class:`PatternKey`; counts sum to the
    number of input lines.  Classification errors are re-raised with the
    1-based line number prepended.
    """
    manifest: Counter = Counter()
    for lineno, line in enumerate(lines, start=1):
        try:
            triple = classify_statement(line)
        except (UnknownPattern, AmbiguousPattern) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        manifest[PatternKey(triple, device)] += 1
    return manifest
