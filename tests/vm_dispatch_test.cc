// Differential tests of the two interpreter dispatch engines (switch vs
// direct-threaded) and the compare-and-branch superinstruction peephole:
// the same BcProgram must produce bit-identical results under every engine
// and fusion setting, including at numeric boundary values.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>

#include "ir/ir_module.h"
#include "runtime/runtime_registry.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

RuntimeRegistry& TestRegistry() {
  static RuntimeRegistry* registry = [] {
    auto* r = new RuntimeRegistry();
    RegisterBuiltinRuntime(r);
    return r;
  }();
  return *registry;
}

using IrGenerator = std::function<void(IrModule*)>;

/// Declares `i64 f(i64, i64, ptr)` and positions the builder in its entry.
llvm::Function* MakeF(IrModule* mod, llvm::IRBuilder<>* b) {
  auto& ctx = mod->context();
  auto* fty = llvm::FunctionType::get(
      llvm::Type::getInt64Ty(ctx),
      {llvm::Type::getInt64Ty(ctx), llvm::Type::getInt64Ty(ctx),
       llvm::Type::getInt64PtrTy(ctx)},
      false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, "f",
                                    &mod->module());
  b->SetInsertPoint(llvm::BasicBlock::Create(ctx, "entry", fn));
  return fn;
}

/// Runs `gen`'s function under both dispatch engines for each translator
/// option set and checks that every (engine, options) combination agrees,
/// including the side-effect buffer.
void ExpectDispatchEnginesAgree(const IrGenerator& gen, uint64_t a,
                                uint64_t b) {
  std::vector<TranslatorOptions> option_sets;
  TranslatorOptions defaults;
  option_sets.push_back(defaults);
  TranslatorOptions no_cmp_fusion;
  no_cmp_fusion.fuse_cmp_branches = false;
  option_sets.push_back(no_cmp_fusion);
  TranslatorOptions no_fusion_at_all;
  no_fusion_at_all.fuse_macro_ops = false;
  no_fusion_at_all.fuse_cmp_branches = false;
  option_sets.push_back(no_fusion_at_all);

  bool have_reference = false;
  uint64_t ref_value = 0;
  std::vector<int64_t> ref_buf;
  for (size_t opt = 0; opt < option_sets.size(); ++opt) {
    IrModule mod("m");
    gen(&mod);
    ASSERT_EQ(mod.Verify(), "");
    BcProgram program = TranslateToBytecode(*mod.module().getFunction("f"),
                                            TestRegistry(), option_sets[opt]);
    for (VmDispatch dispatch : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
      std::vector<int64_t> buf(64);
      for (int i = 0; i < 64; ++i) buf[static_cast<size_t>(i)] = i * 7 - 100;
      uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
      uint64_t value = VmExecute(program, args, 3, dispatch);
      if (!have_reference) {
        have_reference = true;
        ref_value = value;
        ref_buf = buf;
        continue;
      }
      EXPECT_EQ(value, ref_value)
          << "options[" << opt << "] " << VmDispatchName(dispatch);
      EXPECT_EQ(buf, ref_buf)
          << "options[" << opt << "] " << VmDispatchName(dispatch) << " buffer";
    }
  }
}

TEST(VmDispatchTest, ThreadedEngineIsCompiledIn) {
  // The bakery images build with GCC/Clang; if this starts failing the
  // dispatch benchmark silently degenerates to switch-vs-switch.
  EXPECT_TRUE(VmThreadedDispatchAvailable());
  EXPECT_NE(VmResolveDispatch(VmDispatch::kDefault), VmDispatch::kDefault);
}

// --- compare-and-branch superinstructions ------------------------------------

/// f = (a <pred> b) ? 111 : 222 via explicit branching (not select), so the
/// icmp + condbr pair is fusable.
IrGenerator CmpBranchGen(llvm::CmpInst::Predicate pred, bool use_i32) {
  return [pred, use_i32](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Value* lhs = fn->getArg(0);
    llvm::Value* rhs = fn->getArg(1);
    if (use_i32) {
      lhs = b.CreateTrunc(lhs, b.getInt32Ty());
      rhs = b.CreateTrunc(rhs, b.getInt32Ty());
    }
    b.CreateCondBr(b.CreateICmp(pred, lhs, rhs), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

TEST(VmDispatchTest, FusedIcmpBranchAllPredicatesAtBoundaries) {
  const llvm::CmpInst::Predicate predicates[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
  };
  const uint64_t boundary[] = {
      0,
      1,
      static_cast<uint64_t>(-1),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      0x80000000ull,  // i32 sign boundary as unsigned
  };
  for (llvm::CmpInst::Predicate pred : predicates) {
    for (bool use_i32 : {false, true}) {
      IrGenerator gen = CmpBranchGen(pred, use_i32);
      for (uint64_t x : boundary) {
        for (uint64_t y : boundary) {
          ExpectDispatchEnginesAgree(gen, x, y);
          if (::testing::Test::HasFailure()) {
            FAIL() << "pred=" << pred << " i32=" << use_i32 << " x=" << x
                   << " y=" << y;
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, FusedFcmpBranchWithNaN) {
  for (llvm::CmpInst::Predicate pred :
       {llvm::CmpInst::FCMP_OLT, llvm::CmpInst::FCMP_OGT}) {
    IrGenerator gen = [pred](IrModule* mod) {
      llvm::IRBuilder<> b(mod->context());
      llvm::Function* fn = MakeF(mod, &b);
      auto& ctx = mod->context();
      auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
      auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
      auto* x = b.CreateBitCast(fn->getArg(0), b.getDoubleTy());
      auto* y = b.CreateBitCast(fn->getArg(1), b.getDoubleTy());
      b.CreateCondBr(b.CreateFCmp(pred, x, y), then_bb, else_bb);
      b.SetInsertPoint(then_bb);
      b.CreateRet(b.getInt64(111));
      b.SetInsertPoint(else_bb);
      b.CreateRet(b.getInt64(222));
    };
    auto bits = [](double d) {
      uint64_t u;
      std::memcpy(&u, &d, sizeof(u));
      return u;
    };
    const double values[] = {0.0, -0.0, 1.5, -1.5,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    for (double x : values) {
      for (double y : values) {
        ExpectDispatchEnginesAgree(gen, bits(x), bits(y));
      }
    }
  }
}

TEST(VmDispatchTest, CmpBranchFusionEmitsSuperinstruction) {
  IrGenerator gen = CmpBranchGen(llvm::CmpInst::ICMP_SLT, false);
  IrModule mod("m");
  gen(&mod);
  BcProgram fused =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(fused.fused_cmp_branches, 1u);
  EXPECT_NE(fused.Disassemble().find("br_slt_i64"), std::string::npos);
  EXPECT_EQ(fused.Disassemble().find("icmp_slt_i64"), std::string::npos);

  TranslatorOptions no_fuse;
  no_fuse.fuse_cmp_branches = false;
  BcProgram unfused = TranslateToBytecode(*mod.module().getFunction("f"),
                                          TestRegistry(), no_fuse);
  EXPECT_EQ(unfused.fused_cmp_branches, 0u);
  EXPECT_NE(unfused.Disassemble().find("icmp_slt_i64"), std::string::npos);
  EXPECT_NE(unfused.Disassemble().find("condbr"), std::string::npos);
  // Fusion removes one instruction (the icmp).
  EXPECT_EQ(fused.code.size() + 1, unfused.code.size());
}

/// f = (x <pred> K) ? 111 : 222 with the constant on the LHS or RHS. The
/// fused compare-and-branch reads K from a constant-pool register slot.
IrGenerator CmpConstBranchGen(llvm::CmpInst::Predicate pred, bool use_i32,
                              uint64_t constant, bool constant_lhs) {
  return [pred, use_i32, constant, constant_lhs](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Value* x = fn->getArg(0);
    llvm::Value* k;
    if (use_i32) {
      x = b.CreateTrunc(x, b.getInt32Ty());
      k = b.getInt32(static_cast<uint32_t>(constant));
    } else {
      k = b.getInt64(constant);
    }
    llvm::Value* cmp = constant_lhs ? b.CreateICmp(pred, k, x)
                                    : b.CreateICmp(pred, x, k);
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

constexpr uint32_t kNoSlot = ~0u;

/// Register slot the constant pool materializes `value` into, or kNoSlot.
uint32_t ConstantSlotOf(const BcProgram& program, uint64_t value) {
  for (const BcProgram::PoolEntry& entry : program.constant_pool) {
    if (entry.value == value) return entry.slot;
  }
  return kNoSlot;
}

/// Translates `gen` with the default options and runs it on the switch
/// engine (the differential harness checks the other engine and options).
uint64_t RunDefault(const IrGenerator& gen, uint64_t a, uint64_t b) {
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  std::vector<int64_t> buf(64);
  uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
  return VmExecute(program, args, 3, VmDispatch::kSwitch);
}

TEST(VmDispatchTest, ConstCmpBranchAllPredicatesBothEnginesAtBoundaries) {
  const llvm::CmpInst::Predicate predicates[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
  };
  const uint64_t boundary[] = {
      0,
      1,
      2,
      static_cast<uint64_t>(-1),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      0x80000000ull,  // i32 sign boundary as unsigned
  };
  for (llvm::CmpInst::Predicate pred : predicates) {
    for (bool use_i32 : {false, true}) {
      const unsigned width = use_i32 ? 32 : 64;
      for (bool constant_lhs : {false, true}) {
        for (uint64_t k : boundary) {
          IrGenerator gen = CmpConstBranchGen(pred, use_i32, k, constant_lhs);
          for (uint64_t x : boundary) {
            ExpectDispatchEnginesAgree(gen, x, 0);
            // Independent oracle: LLVM's own constant-folding semantics.
            const llvm::APInt xv(width, x, /*isSigned=*/false);
            const llvm::APInt kv(width, k, /*isSigned=*/false);
            const bool taken = constant_lhs ? llvm::ICmpInst::compare(kv, xv, pred)
                                            : llvm::ICmpInst::compare(xv, kv, pred);
            EXPECT_EQ(RunDefault(gen, x, 0), taken ? 111u : 222u);
            if (::testing::Test::HasFailure()) {
              FAIL() << "pred=" << pred << " i32=" << use_i32
                     << " const_lhs=" << constant_lhs << " k=" << k
                     << " x=" << x;
            }
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, ConstCmpBranchReadsConstantPoolRegister) {
  IrGenerator gen =
      CmpConstBranchGen(llvm::CmpInst::ICMP_SLT, false, 42, /*lhs=*/false);
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  EXPECT_NE(program.Disassemble().find("br_slt_i64"), std::string::npos);
  EXPECT_EQ(program.Disassemble().find("icmp"), std::string::npos);
  // The compared constant is materialized into a register on entry, next
  // to the two returned constants; the literal pool holds callee addresses
  // only, and this function calls none.
  EXPECT_TRUE(program.literal_pool.empty());
  EXPECT_EQ(program.constant_pool.size(), 3u);
  EXPECT_NE(ConstantSlotOf(program, 42), kNoSlot);
  // 0/1 need no pool entry: the reserved slots already hold them.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}}) {
    IrModule reserved_mod("m");
    CmpConstBranchGen(llvm::CmpInst::ICMP_SGT, false, k,
                      /*lhs=*/false)(&reserved_mod);
    BcProgram reserved = TranslateToBytecode(
        *reserved_mod.module().getFunction("f"), TestRegistry(), {});
    EXPECT_EQ(reserved.fused_cmp_branches, 1u);
    EXPECT_EQ(reserved.constant_pool.size(), 2u);
    EXPECT_EQ(ConstantSlotOf(reserved, k), kNoSlot);
  }
}

TEST(VmDispatchTest, ConstCmpBranchKeepsConstantLhsInPlace) {
  // 42 < x stays br_slt_i64 with the constant's register as the LHS
  // operand: the register form needs no mirrored predicate.
  IrGenerator gen =
      CmpConstBranchGen(llvm::CmpInst::ICMP_SLT, false, 42, /*lhs=*/true);
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  const uint32_t k_slot = ConstantSlotOf(program, 42);
  ASSERT_NE(k_slot, kNoSlot);
  bool found = false;
  for (const BcInstruction& inst : program.code) {
    if (static_cast<Opcode>(inst.op) != Opcode::k_br_slt_i64) continue;
    found = true;
    EXPECT_EQ(inst.a2, k_slot);
    EXPECT_EQ(inst.a3, program.arg_offsets[0]);
  }
  EXPECT_TRUE(found) << program.Disassemble();
  for (int64_t x : {int64_t{41}, int64_t{42}, int64_t{43},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    const uint64_t ux = static_cast<uint64_t>(x);
    ExpectDispatchEnginesAgree(gen, ux, 0);
    EXPECT_EQ(RunDefault(gen, ux, 0), 42 < x ? 111u : 222u) << x;
  }
}

TEST(VmDispatchTest, ConstFcmpBranchWithNaN) {
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  const double values[] = {0.0, -0.0, 1.5, -1.5, -3.25,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (llvm::CmpInst::Predicate pred :
       {llvm::CmpInst::FCMP_OLT, llvm::CmpInst::FCMP_OGT}) {
    for (double k : {1.5, -3.25, std::numeric_limits<double>::quiet_NaN()}) {
      for (bool constant_lhs : {false, true}) {
        IrGenerator gen = [pred, k, constant_lhs](IrModule* mod) {
          llvm::IRBuilder<> b(mod->context());
          llvm::Function* fn = MakeF(mod, &b);
          auto& ctx = mod->context();
          auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
          auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
          llvm::Value* x = b.CreateBitCast(fn->getArg(0), b.getDoubleTy());
          llvm::Value* c = llvm::ConstantFP::get(b.getDoubleTy(), k);
          b.CreateCondBr(constant_lhs ? b.CreateFCmp(pred, c, x)
                                      : b.CreateFCmp(pred, x, c),
                         then_bb, else_bb);
          b.SetInsertPoint(then_bb);
          b.CreateRet(b.getInt64(111));
          b.SetInsertPoint(else_bb);
          b.CreateRet(b.getInt64(222));
        };
        {
          IrModule mod("m");
          gen(&mod);
          BcProgram program = TranslateToBytecode(
              *mod.module().getFunction("f"), TestRegistry(), {});
          EXPECT_EQ(program.fused_cmp_branches, 1u);
        }
        for (double x : values) {
          ExpectDispatchEnginesAgree(gen, bits(x), 0);
          const llvm::APFloat xv(x);
          const llvm::APFloat kv(k);
          const bool taken = constant_lhs ? llvm::FCmpInst::compare(kv, xv, pred)
                                          : llvm::FCmpInst::compare(xv, kv, pred);
          EXPECT_EQ(RunDefault(gen, bits(x), 0), taken ? 111u : 222u)
              << "pred=" << pred << " k=" << k << " x=" << x
              << " const_lhs=" << constant_lhs;
        }
      }
    }
  }
}

TEST(VmDispatchTest, MultiUseCompareIsNotFused) {
  // The i1 result is used by both the condbr and a zext -> no fusion.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    auto* cmp = b.CreateICmpSLT(fn->getArg(0), fn->getArg(1));
    auto* bit = b.CreateZExt(cmp, b.getInt64Ty());
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.CreateAdd(bit, b.getInt64(100)));
    b.SetInsertPoint(else_bb);
    b.CreateRet(bit);
  };
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_cmp_branches, 0u);
  ExpectDispatchEnginesAgree(gen, 3, 9);
  ExpectDispatchEnginesAgree(gen, 9, 3);
}

// --- short-circuit branch chains ---------------------------------------------

/// A scan-filter loop whose filter is one conjunction feeding a single
/// condbr — the and-tree shape every compiled multi-term predicate has, and
/// the branch-chain splitting target. Sums buf[i] over rows passing
/// `buf[i] > a && buf[i] < b && <third term>`. The first compare reads its
/// own single-use load; the second load feeds the remaining terms and the
/// sum. With
/// `unfusable_leaf` the third term is an fcmp OGE, which has no fused
/// branch form and must chain through a plain condbr.
IrGenerator ChainLoopGen(bool unfusable_leaf) {
  return [unfusable_leaf](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* i64 = llvm::Type::getInt64Ty(ctx);
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* keep = llvm::BasicBlock::Create(ctx, "keep", fn);
    auto* latch = llvm::BasicBlock::Create(ctx, "latch", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = b.GetInsertBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(i64, 2, "i");
    auto* sum = b.CreatePHI(i64, 2, "sum");
    i->addIncoming(b.getInt64(0), entry);
    sum->addIncoming(b.getInt64(0), entry);
    b.CreateCondBr(b.CreateICmpULT(i, b.getInt64(64)), body, exit);
    b.SetInsertPoint(body);
    auto* v1 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* v2 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* c1 = b.CreateICmpSGT(v1, fn->getArg(0));
    auto* c2 = b.CreateICmpSLT(v2, fn->getArg(1));
    llvm::Value* c3;
    if (unfusable_leaf) {
      auto* vd = b.CreateSIToFP(v2, b.getDoubleTy());
      c3 = b.CreateFCmpOGE(vd, llvm::ConstantFP::get(b.getDoubleTy(), -60.0));
    } else {
      c3 = b.CreateICmpNE(v2, b.getInt64(40));
    }
    b.CreateCondBr(b.CreateAnd(b.CreateAnd(c1, c2), c3), keep, latch);
    b.SetInsertPoint(keep);
    auto* sum2 = b.CreateAdd(sum, v2);
    b.CreateBr(latch);
    b.SetInsertPoint(latch);
    auto* sum3 = b.CreatePHI(i64, 2, "sum3");
    sum3->addIncoming(sum, body);
    sum3->addIncoming(sum2, keep);
    auto* next = b.CreateAdd(i, b.getInt64(1));
    i->addIncoming(next, latch);
    sum->addIncoming(sum3, latch);
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    b.CreateRet(sum);
  };
}

TEST(VmDispatchTest, BranchChainSplitsConjunction) {
  IrGenerator gen = ChainLoopGen(/*unfusable_leaf=*/false);
  IrModule mod("m");
  gen(&mod);
  BcProgram chained =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  // Loop bound + all three conjunction leaves fuse into register-form
  // compare-and-branches; both loads stay fused GEP+load ops and the bound
  // (ult 64) and ne-40 constants sit in the constant pool. No condbr or
  // `and` survives.
  EXPECT_EQ(chained.fused_cmp_branches, 4u);
  const std::string disasm = chained.Disassemble();
  for (const char* op : {"br_ult_i64", "br_sgt_i64", "br_slt_i64",
                         "br_ne_i64"}) {
    EXPECT_NE(disasm.find(op), std::string::npos) << op;
  }
  EXPECT_EQ(disasm.find("condbr"), std::string::npos);
  EXPECT_EQ(disasm.find("and_i1"), std::string::npos);
  EXPECT_TRUE(chained.literal_pool.empty());
  EXPECT_EQ(chained.constant_pool.size(), 2u);

  TranslatorOptions no_cmp_fusion;
  no_cmp_fusion.fuse_cmp_branches = false;
  BcProgram flat = TranslateToBytecode(*mod.module().getFunction("f"),
                                       TestRegistry(), no_cmp_fusion);
  // Chains ride on compare fusion: without it the conjunction materializes
  // into and_i1 nodes feeding plain condbrs.
  EXPECT_EQ(flat.fused_cmp_branches, 0u);
  EXPECT_NE(flat.Disassemble().find("and_i1"), std::string::npos);
  EXPECT_NE(flat.Disassemble().find("condbr"), std::string::npos);
}

TEST(VmDispatchTest, BranchChainKeepsUnfusableLeafAsCondbr) {
  IrGenerator gen = ChainLoopGen(/*unfusable_leaf=*/true);
  IrModule mod("m");
  gen(&mod);
  BcProgram chained =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  // The fcmp-OGE leaf has no fused branch form: it computes in the body
  // and chains through a plain condbr, while the loop bound and the two
  // icmp leaves still fuse.
  EXPECT_EQ(chained.fused_cmp_branches, 3u);
  EXPECT_NE(chained.Disassemble().find("condbr"), std::string::npos);
}

TEST(VmDispatchTest, BranchChainAllEnginesAndOptionSetsAgree) {
  // Harness buf holds i*7 - 100 for i in [0, 64): range [-100, 341],
  // containing the ne-40 leaf's constant (i == 20). Thresholds picked so
  // each term is the short-circuit decider for some rows: always-pass,
  // always-fail, and boundary-straddling pairs.
  const int64_t pairs[][2] = {
      {-1000, 1000},  // every row passes the range terms
      {341, 1000},    // first term fails on every row
      {-1000, -99},   // second term fails on almost every row
      {0, 200},       // mixed
      {39, 41},       // isolates the ne-40 leaf
  };
  for (bool unfusable_leaf : {false, true}) {
    IrGenerator gen = ChainLoopGen(unfusable_leaf);
    for (const auto& p : pairs) {
      ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(p[0]),
                                 static_cast<uint64_t>(p[1]));
      if (::testing::Test::HasFailure()) {
        FAIL() << "unfusable_leaf=" << unfusable_leaf << " a=" << p[0]
               << " b=" << p[1];
      }
    }
  }
}

// --- overflow macro ops under both engines -----------------------------------

TEST(VmDispatchTest, OverflowOpsFusedAndUnfusedAtBoundaries) {
  for (llvm::Intrinsic::ID id :
       {llvm::Intrinsic::sadd_with_overflow, llvm::Intrinsic::ssub_with_overflow,
        llvm::Intrinsic::smul_with_overflow}) {
    IrGenerator gen = [id](IrModule* mod) {
      llvm::IRBuilder<> b(mod->context());
      llvm::Function* fn = MakeF(mod, &b);
      auto& ctx = mod->context();
      auto* ovf = llvm::BasicBlock::Create(ctx, "ovf", fn);
      auto* cont = llvm::BasicBlock::Create(ctx, "cont", fn);
      auto* pair =
          b.CreateBinaryIntrinsic(id, fn->getArg(0), fn->getArg(1));
      auto* val = b.CreateExtractValue(pair, 0);
      auto* flag = b.CreateExtractValue(pair, 1);
      b.CreateCondBr(flag, ovf, cont);
      b.SetInsertPoint(ovf);
      b.CreateRet(b.getInt64(static_cast<uint64_t>(-1)));
      b.SetInsertPoint(cont);
      b.CreateRet(val);
    };
    const uint64_t boundary[] = {
        0,
        1,
        static_cast<uint64_t>(-1),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max() - 1),
        0x100000000ull,
    };
    for (uint64_t x : boundary) {
      for (uint64_t y : boundary) {
        ExpectDispatchEnginesAgree(gen, x, y);
      }
    }
  }
}

// --- loops, memory traffic, calls --------------------------------------------

TEST(VmDispatchTest, FilterLoopWithStores) {
  // for i in [0,60): if (buf[i] > a) buf[i] = buf[i] * 3 - b; returns sum.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* i64 = b.getInt64Ty();
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* hit = llvm::BasicBlock::Create(ctx, "hit", fn);
    auto* next = llvm::BasicBlock::Create(ctx, "next", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = &fn->getEntryBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(i64, 2);
    auto* sum = b.CreatePHI(i64, 2);
    b.CreateCondBr(b.CreateICmpULT(i, b.getInt64(60)), body, exit);
    b.SetInsertPoint(body);
    auto* gep = b.CreateGEP(i64, fn->getArg(2), i);
    auto* v = b.CreateLoad(i64, gep);
    b.CreateCondBr(b.CreateICmpSGT(v, fn->getArg(0)), hit, next);
    b.SetInsertPoint(hit);
    auto* updated = b.CreateSub(b.CreateMul(v, b.getInt64(3)), fn->getArg(1));
    auto* gep2 = b.CreateGEP(i64, fn->getArg(2), i);
    b.CreateStore(updated, gep2);
    b.CreateBr(next);
    b.SetInsertPoint(next);
    auto* v2 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* sum2 = b.CreateAdd(sum, v2);
    auto* i2 = b.CreateAdd(i, b.getInt64(1));
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    b.CreateRet(sum);
    i->addIncoming(b.getInt64(0), entry);
    i->addIncoming(i2, next);
    sum->addIncoming(b.getInt64(0), entry);
    sum->addIncoming(sum2, next);
  };
  ExpectDispatchEnginesAgree(gen, 0, 5);
  ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(-200), 17);
  ExpectDispatchEnginesAgree(gen, 200, 17);  // no row passes
}

// --- disassembly round trip --------------------------------------------------

struct ParsedInst {
  char name[32];
  unsigned a1, a2, a3;
  unsigned long long lit;
};

/// Parses one Disassemble() line back into its fields.
bool ParseDisassembly(const std::string& line, ParsedInst* out) {
  return std::sscanf(line.c_str(), "%*x %31s %u %u %u 0x%llx", out->name,
                     &out->a1, &out->a2, &out->a3, &out->lit) == 5;
}

TEST(VmDispatchTest, DisassembleRoundTripsEveryOpcode) {
  // One instruction per opcode with distinctive field values; the printed
  // form must recover op, a1..a3, and lit exactly.
  BcProgram program;
  const auto num_opcodes = static_cast<uint16_t>(Opcode::kNumOpcodes);
  for (uint16_t op = 0; op < num_opcodes; ++op) {
    BcInstruction inst;
    inst.op = op;
    inst.a1 = static_cast<uint16_t>(op * 3 + 1);
    inst.a2 = static_cast<uint16_t>(op * 5 + 2);
    inst.a3 = static_cast<uint16_t>(op * 7 + 3);
    inst.lit = 0x1234000000ull + op;
    program.code.push_back(inst);
  }
  std::string disasm = program.Disassemble();
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < disasm.size()) {
    size_t nl = disasm.find('\n', pos);
    if (nl == std::string::npos) nl = disasm.size();
    std::string line = disasm.substr(pos, nl - pos);
    if (!line.empty() && line[0] != ';') lines.push_back(line);
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), static_cast<size_t>(num_opcodes));
  for (uint16_t op = 0; op < num_opcodes; ++op) {
    ParsedInst parsed;
    ASSERT_TRUE(ParseDisassembly(lines[op], &parsed)) << lines[op];
    const BcInstruction& inst = program.code[op];
    EXPECT_STREQ(parsed.name, OpcodeName(static_cast<Opcode>(op)));
    EXPECT_EQ(parsed.a1, inst.a1) << lines[op];
    EXPECT_EQ(parsed.a2, inst.a2) << lines[op];
    EXPECT_EQ(parsed.a3, inst.a3) << lines[op];
    EXPECT_EQ(parsed.lit, inst.lit) << lines[op];
  }
}

TEST(VmDispatchTest, CompactEncodingIs16Bytes) {
  static_assert(sizeof(BcInstruction) == 16, "compact encoding");
  EXPECT_EQ(sizeof(BcInstruction), 16u);
}

}  // namespace
}  // namespace aqe
