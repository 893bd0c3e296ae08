//===- ir/Opcode.cpp - Condition codes ------------------------------------===//

#include "ir/Opcode.h"

#include "support/Assert.h"

using namespace ssp;
using namespace ssp::ir;

const char *ssp::ir::condName(CondCode CC) {
  switch (CC) {
  case CondCode::EQ:
    return "eq";
  case CondCode::NE:
    return "ne";
  case CondCode::LT:
    return "lt";
  case CondCode::LE:
    return "le";
  case CondCode::GT:
    return "gt";
  case CondCode::GE:
    return "ge";
  }
  ssp_unreachable("bad cond code");
}

bool ssp::ir::evalCond(CondCode CC, int64_t A, int64_t B) {
  switch (CC) {
  case CondCode::EQ:
    return A == B;
  case CondCode::NE:
    return A != B;
  case CondCode::LT:
    return A < B;
  case CondCode::LE:
    return A <= B;
  case CondCode::GT:
    return A > B;
  case CondCode::GE:
    return A >= B;
  }
  ssp_unreachable("bad cond code");
}
